//! Sharded fleet serving: a [`Coordinator`] that partitions a frozen
//! store across [`ShardWorker`] processes and cross-checks replicas by
//! fingerprint consensus.
//!
//! # Topology
//!
//! ```text
//!                        clients
//!                           │ query / bulk
//!                     ┌─────▼──────┐
//!                     │ Coordinator│   owns the row partition + the
//!                     └─────┬──────┘   expected per-chunk fingerprints
//!            ┌──────────────┼──────────────┐
//!       shard 0        shard 1        shard k-1      (contiguous row
//!      ┌───┬───┐      ┌───┬───┐      ┌───┬───┐        ranges of the
//!      │r0 │r1 │      │r0 │r1 │      │r0 │r1 │        single store)
//!      └───┴───┘      └───┴───┘      └───┴───┘
//!       replicas — every replica of a shard holds the same slice
//! ```
//!
//! Each shard worker (`gcond --shard`) starts **empty**: the coordinator
//! ships it a row-range slice of the store as a v3 store artifact
//! ([`crate::ServingModel::slice_bytes`]) in a `ShardAssign` frame, and
//! from then on the worker answers `ShardQuery` frames for *global* node
//! ids inside its range. All fleet traffic rides the same fail-closed
//! [`crate::wire`] protocol as single-process serving, through the same
//! session core: the worker is the second role of the listener behind
//! [`crate::Server`] (one accept loop, handshake, token check and chunked
//! logits stream for both), and adds only its assignment and the three
//! shard frames.
//!
//! # Consensus and quarantine
//!
//! The whole stack is bitwise-deterministic, so "do these replicas
//! agree?" does not need voting on query answers: a replica's store
//! bytes determine its answers exactly. The coordinator therefore keeps,
//! per shard, the **expected** per-chunk store fingerprints (computed
//! locally from the slice it shipped,
//! [`crate::ServingModel::chunk_fingerprints`]) and compares them
//! against what each replica reports — at deploy time and on every
//! [`Coordinator::consensus_check`]. Any mismatch (bit rot, a corrupted
//! ship, a wrong artifact) **quarantines** that replica: it stops
//! receiving queries but stays connected, and the event is surfaced in
//! [`Coordinator::stats`]. Quarantine is one-way; re-deploying is the
//! only way back.
//!
//! # Failover
//!
//! A replica whose connection fails (even after the client's bounded
//! reconnect-and-replay, [`crate::GconClient::with_retries`]) is marked
//! **dead** and the query is rerouted to the next healthy replica of the
//! same shard — the caller sees the rerouted (bitwise identical) answer,
//! plus a `failovers` tick in [`Coordinator::stats`]. A shard with no
//! healthy replica left fails the query with
//! [`FleetError::NoHealthyReplica`].
//!
//! # Environment knobs
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `GCON_FLEET_CHUNK_ROWS` | 64 | fingerprint granularity, rows per chunk |
//! | `GCON_FLEET_RETRIES` | 2 | reconnect-and-replay attempts per shard call |
//! | `GCON_FLEET_TIMEOUT_MS` | 5000 | coordinator→shard socket read/write timeout |

use crate::client::GconClient;
use crate::model::ServingModel;
use crate::server::{store_info, Conn, Listener, Role, ServerConfig, ServerHandle};
use crate::wire::{ErrorCode, Request, Response, ServerInfo, WireError, WireStats, PROTO_VERSION};
use gcon_linalg::Mat;
use std::net::{SocketAddr, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Tuning knobs of the fleet layer, all overridable via `GCON_FLEET_*`
/// environment variables (see [`FleetConfig::from_env`]).
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Rows per fingerprint chunk — the consensus granularity. Smaller
    /// chunks localise corruption better but cost more hashing. Must
    /// be ≥ 1.
    pub chunk_rows: usize,
    /// Reconnect-and-replay attempts per coordinator→shard call (passed
    /// to [`GconClient::with_retries`]). Zero disables retries.
    pub retries: u32,
    /// Socket read timeout for coordinator→shard connections. Also the
    /// effective failover detection bound: a hung replica is declared
    /// dead after `(retries + 1) ×` this.
    pub read_timeout: Duration,
    /// Socket write timeout for coordinator→shard connections.
    pub write_timeout: Duration,
    /// Maximum accepted frame-body length on coordinator→shard
    /// connections; must be large enough for the biggest shard artifact
    /// (the deploy path checks and fails closed otherwise).
    pub max_frame: usize,
}

impl Default for FleetConfig {
    /// 64-row fingerprint chunks, 2 retries, 5 s read / 5 s write
    /// timeouts, [`crate::wire::DEFAULT_MAX_FRAME`].
    fn default() -> Self {
        Self {
            chunk_rows: 64,
            retries: 2,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_frame: crate::wire::DEFAULT_MAX_FRAME,
        }
    }
}

impl FleetConfig {
    /// [`Default`] overridden by `GCON_FLEET_CHUNK_ROWS` (rows ≥ 1),
    /// `GCON_FLEET_RETRIES` (attempts) and `GCON_FLEET_TIMEOUT_MS`
    /// (milliseconds ≥ 1, sets both socket timeouts). Unparsable values
    /// fall back to the default with a warning (via
    /// [`gcon_runtime::envknob`]).
    pub fn from_env() -> Self {
        use gcon_runtime::envknob::env_knob;
        let d = Self::default();
        let timeout = env_knob(
            "gcon-serve",
            "GCON_FLEET_TIMEOUT_MS",
            d.read_timeout,
            "milliseconds ≥ 1",
            "5s",
            |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
        );
        Self {
            chunk_rows: env_knob(
                "gcon-serve",
                "GCON_FLEET_CHUNK_ROWS",
                d.chunk_rows,
                "an integer ≥ 1",
                "64",
                |v| v.parse::<usize>().ok().filter(|&n| n >= 1),
            ),
            retries: env_knob(
                "gcon-serve",
                "GCON_FLEET_RETRIES",
                d.retries,
                "an integer",
                "2",
                |v| v.parse::<u32>().ok(),
            ),
            read_timeout: timeout,
            write_timeout: timeout,
            max_frame: d.max_frame,
        }
    }
}

/// The fleet-layer error type: configuration/deploy failures, exhausted
/// shards, and wire errors that survived failover.
#[derive(Debug)]
pub enum FleetError {
    /// The requested topology cannot be built (zero shards, a shard with
    /// zero replicas, more shards than store rows, …).
    Config(String),
    /// A wire/transport failure not absorbed by failover (e.g. during
    /// deploy, before replicas exist to fail over to).
    Wire(WireError),
    /// Every replica of `shard` is dead or quarantined.
    NoHealthyReplica {
        /// The shard index with no healthy replica left.
        shard: usize,
    },
    /// A queried node id is outside the store.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// The store's row count.
        nodes: u64,
    },
    /// A worker accepted the connection but rejected or mangled its
    /// assignment (wrong row count, undecodable artifact, …).
    ReplicaRejected {
        /// The shard index being deployed.
        shard: usize,
        /// The worker address.
        addr: String,
        /// What went wrong, for the operator.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "fleet configuration error: {msg}"),
            Self::Wire(e) => write!(f, "fleet wire error: {e}"),
            Self::NoHealthyReplica { shard } => {
                write!(f, "shard {shard} has no healthy replica left")
            }
            Self::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (store has {nodes} rows)")
            }
            Self::ReplicaRejected { shard, addr, detail } => {
                write!(f, "replica {addr} rejected shard {shard} deploy: {detail}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for FleetError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

// ====================================================================
// Shard worker
// ====================================================================

/// What an assigned worker holds: where its slice starts in the fleet's
/// row space, and the slice itself, re-decoded from the shipped artifact.
#[derive(Clone)]
struct ShardState {
    row_start: u64,
    model: Arc<ServingModel>,
}

/// The refusal of a shard frame that needs an assignment.
const UNASSIGNED: &str = "no shard assigned to this worker yet";

/// A `gcond --shard` worker: the second role of the session core that
/// [`crate::Server`] also runs on (same accept loop, handshake, token
/// check and chunk stream), starting with **no store** and acquiring one
/// over the wire via `ShardAssign`. It answers `ShardQuery` (global node ids inside
/// its range), `ShardFingerprint` (consensus payload), `Stats`, `Health`;
/// plain `Query`/`Bulk` frames get [`ErrorCode::NotAssigned`] — clients
/// must route through the [`Coordinator`].
///
/// Unlike [`crate::Server`], the store is owned (swapped at runtime by
/// reassignment) rather than borrowed, so the worker has no lifetime
/// parameter. Assignment is process-global and survives reconnects —
/// that is what makes the coordinator's reconnect-and-replay safe.
pub struct ShardWorker {
    listener: Listener,
    state: RwLock<Option<ShardState>>,
    requests: AtomicU64,
}

impl ShardWorker {
    /// Binds `addr` (port 0 for ephemeral) with no assignment yet.
    pub fn bind(config: ServerConfig, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self {
            listener: Listener::bind(config, addr)?,
            state: RwLock::new(None),
            requests: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A clonable handle that can stop this worker from another thread.
    pub fn handle(&self) -> ServerHandle {
        self.listener.handle()
    }

    /// Accepts and serves connections until [`ServerHandle::stop`], then
    /// joins every connection thread and returns (blocks; run on a
    /// dedicated thread).
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.run(self)
    }

    /// Counter snapshot (the worker-side `Stats` answer).
    pub fn stats(&self) -> WireStats {
        Role::stats(self)
    }

    /// The current assignment (a cloned `Arc`, so the lock is never held
    /// across query work).
    fn assigned(&self) -> Option<ShardState> {
        self.state.read().expect("shard state lock poisoned").clone()
    }
}

impl Role for ShardWorker {
    /// Zeros before assignment (the coordinator knows the real shape; a
    /// worker without a store has nothing truthful to claim), the slice's
    /// shape after.
    fn info(&self) -> ServerInfo {
        match self.assigned() {
            Some(state) => store_info(&state.model),
            None => ServerInfo {
                proto: PROTO_VERSION,
                mode: crate::ServingMode::Public,
                dtype: crate::StoreDtype::F64,
                nodes: 0,
                feature_dim: 0,
                classes: 0,
            },
        }
    }

    fn healthy(&self) -> bool {
        true
    }

    fn stats(&self) -> WireStats {
        WireStats {
            connections: self.listener.connections(),
            requests: self.requests.load(Ordering::Relaxed),
            ..WireStats::default()
        }
    }

    fn serve(&self, conn: &mut Conn, request: Request) -> Result<(), WireError> {
        match request {
            Request::ShardAssign { shard_id, row_start, artifact, .. } => {
                // Fail closed, keep the session: the coordinator decides
                // whether to re-ship.
                let Ok(model) = ServingModel::from_bytes(&artifact) else {
                    return conn.error(ErrorCode::BadFrame, "undecodable shard artifact");
                };
                let rows = model.num_nodes() as u64;
                *self.state.write().expect("shard state lock poisoned") =
                    Some(ShardState { row_start, model: Arc::new(model) });
                conn.reply(&Response::ShardReady { shard_id, rows })
            }
            Request::ShardQuery { nodes, .. } => {
                let Some(ShardState { row_start, model }) = self.assigned() else {
                    return conn.error(ErrorCode::NotAssigned, UNASSIGNED);
                };
                let rows = model.num_nodes() as u64;
                // Global → local translation; anything outside the
                // assigned range is the coordinator's routing bug, fail
                // closed with a typed error.
                let local: Option<Vec<usize>> = nodes
                    .iter()
                    .map(|&node| {
                        node.checked_sub(row_start).filter(|&l| l < rows).map(|l| l as usize)
                    })
                    .collect();
                let Some(local) = local else {
                    return conn.error(
                        ErrorCode::NodeOutOfRange,
                        "node id outside this worker's assigned range",
                    );
                };
                conn.stream_logits(&model, &local, |start, cols, values| Response::ShardLogits {
                    start,
                    cols,
                    values,
                })?;
                self.requests.fetch_add(local.len() as u64, Ordering::Relaxed);
                Ok(())
            }
            Request::ShardFingerprint { chunk_rows, .. } => {
                let Some(ShardState { model, .. }) = self.assigned() else {
                    return conn.error(ErrorCode::NotAssigned, UNASSIGNED);
                };
                let chunk = match usize::try_from(chunk_rows) {
                    Ok(0) => return conn.error(ErrorCode::BadFrame, "chunk size must be ≥ 1"),
                    Ok(chunk) => chunk,
                    Err(_) => return conn.error(ErrorCode::BadFrame, "chunk size too large"),
                };
                let fingerprints = model.chunk_fingerprints(chunk);
                conn.reply(&Response::ShardFingerprintReply { chunk_rows, fingerprints })
            }
            // Plain client traffic belongs to the coordinator (which knows
            // the global partition); a shard worker answers only for its
            // range and only via shard frames.
            _ => conn.error(
                ErrorCode::NotAssigned,
                "plain queries are not served by shard workers; route via the coordinator",
            ),
        }
    }
}

// ====================================================================
// Coordinator
// ====================================================================

/// One replica of one shard: its connection (a [`GconClient`] with
/// bounded retry) plus the two one-way health latches.
#[derive(Debug)]
struct Replica {
    addr: String,
    conn: Mutex<GconClient>,
    /// Fingerprint mismatch — wrong *bytes*. Never queried again.
    quarantined: AtomicBool,
    /// Connection failure that survived retry — wrong *liveness*.
    /// Never queried again (re-deploy to recover).
    dead: AtomicBool,
}

impl Replica {
    fn healthy(&self) -> bool {
        !self.quarantined.load(Ordering::SeqCst) && !self.dead.load(Ordering::SeqCst)
    }
}

/// One shard: its global row range and its replicas in preference order.
#[derive(Debug)]
struct Shard {
    range: Range<u64>,
    replicas: Vec<Replica>,
    /// Expected per-chunk fingerprints of this shard's slice, computed
    /// coordinator-side before shipping — the consensus ground truth.
    expected: Vec<u64>,
}

/// Counter snapshot of a [`Coordinator`] (see also
/// [`Coordinator::wire_stats`] for the wire-shaped view).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetStats {
    /// Number of shards in the partition.
    pub shards: usize,
    /// Total replicas across all shards (healthy or not).
    pub replicas: usize,
    /// Replicas quarantined by fingerprint consensus (deploy-time or
    /// [`Coordinator::consensus_check`]).
    pub quarantined: u64,
    /// Replicas declared dead after connection failures.
    pub dead: u64,
    /// Queries rerouted to another replica after a failure.
    pub failovers: u64,
    /// Node-rows answered through [`Coordinator::query`] /
    /// [`Coordinator::bulk`].
    pub queries: u64,
}

/// Outcome of one [`Coordinator::consensus_check`] sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsensusReport {
    /// Replicas whose fingerprints were fetched and compared.
    pub checked: usize,
    /// `(shard, replica)` indices quarantined by this sweep.
    pub quarantined: Vec<(usize, usize)>,
    /// `(shard, replica)` indices newly declared dead (unreachable
    /// during the sweep).
    pub unreachable: Vec<(usize, usize)>,
}

/// The fleet front end: owns the row partition, routes queries to the
/// owning shard, scatter-gathers bulk requests, fails over between
/// replicas and runs fingerprint consensus. All query methods take
/// `&self` (per-replica connections are individually locked), so one
/// coordinator can be shared by concurrent client threads.
#[derive(Debug)]
pub struct Coordinator {
    shards: Vec<Shard>,
    nodes: u64,
    classes: usize,
    chunk_rows: usize,
    queries: AtomicU64,
    failovers: AtomicU64,
    quarantined: AtomicU64,
    dead: AtomicU64,
}

impl Coordinator {
    /// Partitions `model` into `topology.len()` contiguous even row
    /// ranges (shard `s` owns `[s·n/k, (s+1)·n/k)`), ships each range's
    /// slice artifact to every replica address in `topology[s]`, verifies
    /// the adopted row counts, and fingerprint-checks every replica
    /// against the coordinator-side expected values — a replica shipped
    /// wrong bytes is quarantined before it ever serves. Fails unless
    /// every shard ends up with at least one healthy replica.
    pub fn deploy(
        model: &ServingModel,
        topology: &[Vec<String>],
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        if topology.is_empty() {
            return Err(FleetError::Config("at least one shard required".into()));
        }
        if topology.iter().any(Vec::is_empty) {
            return Err(FleetError::Config("every shard needs at least one replica".into()));
        }
        if config.chunk_rows == 0 {
            return Err(FleetError::Config("chunk_rows must be ≥ 1".into()));
        }
        let n = model.num_nodes();
        let k = topology.len();
        if k > n {
            return Err(FleetError::Config(format!("{k} shards for a {n}-row store")));
        }
        let coordinator = Self {
            shards: Vec::new(),
            nodes: n as u64,
            classes: model.num_classes(),
            chunk_rows: config.chunk_rows,
            queries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            dead: AtomicU64::new(0),
        };
        let mut shards = Vec::with_capacity(k);
        for (s, replica_addrs) in topology.iter().enumerate() {
            let (start, end) = (s * n / k, (s + 1) * n / k);
            let slice = model.slice_rows(start, end);
            let artifact = slice.to_bytes();
            if artifact.len() + 64 > config.max_frame {
                return Err(FleetError::Config(format!(
                    "shard {s} artifact ({} bytes) exceeds max_frame ({})",
                    artifact.len(),
                    config.max_frame
                )));
            }
            let expected = slice.chunk_fingerprints(config.chunk_rows);
            let mut replicas = Vec::with_capacity(replica_addrs.len());
            for addr in replica_addrs {
                let mut conn = GconClient::connect_with(
                    addr.as_str(),
                    config.read_timeout,
                    config.write_timeout,
                    config.max_frame,
                )
                .map_err(|e| FleetError::ReplicaRejected {
                    shard: s,
                    addr: addr.clone(),
                    detail: format!("connect failed: {e}"),
                })?
                .with_retries(config.retries);
                let rows = conn.shard_assign(s as u32, start as u64, &artifact).map_err(|e| {
                    FleetError::ReplicaRejected {
                        shard: s,
                        addr: addr.clone(),
                        detail: format!("assign failed: {e}"),
                    }
                })?;
                if rows != (end - start) as u64 {
                    return Err(FleetError::ReplicaRejected {
                        shard: s,
                        addr: addr.clone(),
                        detail: format!("adopted {rows} rows, expected {}", end - start),
                    });
                }
                let reported = conn.shard_fingerprints(config.chunk_rows as u64).map_err(|e| {
                    FleetError::ReplicaRejected {
                        shard: s,
                        addr: addr.clone(),
                        detail: format!("fingerprint fetch failed: {e}"),
                    }
                })?;
                let replica = Replica {
                    addr: addr.clone(),
                    conn: Mutex::new(conn),
                    quarantined: AtomicBool::new(false),
                    dead: AtomicBool::new(false),
                };
                if reported != expected {
                    replica.quarantined.store(true, Ordering::SeqCst);
                    coordinator.quarantined.fetch_add(1, Ordering::SeqCst);
                }
                replicas.push(replica);
            }
            if !replicas.iter().any(Replica::healthy) {
                return Err(FleetError::NoHealthyReplica { shard: s });
            }
            shards.push(Shard { range: start as u64..end as u64, replicas, expected });
        }
        Ok(Self { shards, ..coordinator })
    }

    /// The store's total row count (across all shards).
    pub fn num_nodes(&self) -> u64 {
        self.nodes
    }

    /// The store's class count (the width of every logits row).
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Logits of one global node id, routed to the owning shard with
    /// replica failover. Bitwise what a single-process
    /// [`crate::ServingModel`] over the unsharded store answers.
    pub fn query(&self, node: u64) -> Result<Vec<f64>, FleetError> {
        if node >= self.nodes {
            return Err(FleetError::NodeOutOfRange { node, nodes: self.nodes });
        }
        let s = self.shard_of(node);
        let m = self.shard_call(s, &[node])?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(m.row(0).to_vec())
    }

    /// Logits of many global node ids (any order, duplicates fine):
    /// positions are grouped by owning shard, shards are queried
    /// concurrently (scatter), and rows are written back to their request
    /// positions (gather). Row `i` answers `nodes[i]`, bitwise equal to
    /// the single-process answer.
    pub fn bulk(&self, nodes: &[u64]) -> Result<Mat, FleetError> {
        if let Some(&bad) = nodes.iter().find(|&&n| n >= self.nodes) {
            return Err(FleetError::NodeOutOfRange { node: bad, nodes: self.nodes });
        }
        // Scatter: positions grouped per shard, preserving request order
        // within each group.
        let mut groups: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &node) in nodes.iter().enumerate() {
            groups[self.shard_of(node)].push((pos, node));
        }
        let mut out = Mat::zeros(nodes.len(), self.classes);
        let cols = self.classes;
        std::thread::scope(|scope| -> Result<(), FleetError> {
            let handles: Vec<_> = groups
                .iter()
                .enumerate()
                .filter(|(_, group)| !group.is_empty())
                .map(|(s, group)| {
                    let shard_nodes: Vec<u64> = group.iter().map(|&(_, n)| n).collect();
                    (group, scope.spawn(move || self.shard_call(s, &shard_nodes)))
                })
                .collect();
            for (group, handle) in handles {
                let m = handle.join().expect("fleet shard thread panicked")?;
                // Gather: row r of the shard answer is position group[r].0
                // of the request.
                for (r, &(pos, _)) in group.iter().enumerate() {
                    out.as_mut_slice()[pos * cols..(pos + 1) * cols].copy_from_slice(m.row(r));
                }
            }
            Ok(())
        })?;
        self.queries.fetch_add(nodes.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Re-fetches every healthy replica's fingerprints and quarantines
    /// any that diverged from the coordinator-side expected values (e.g.
    /// bit rot or tampering since deploy). Replicas unreachable during
    /// the sweep are declared dead instead. Returns what happened;
    /// surfaced counters move [`Coordinator::stats`].
    pub fn consensus_check(&self) -> ConsensusReport {
        let mut report = ConsensusReport::default();
        for (s, shard) in self.shards.iter().enumerate() {
            for (r, replica) in shard.replicas.iter().enumerate() {
                if !replica.healthy() {
                    continue;
                }
                let fetched =
                    replica.conn.lock().unwrap().shard_fingerprints(self.chunk_rows as u64);
                match fetched {
                    Ok(fingerprints) => {
                        report.checked += 1;
                        if fingerprints != shard.expected {
                            replica.quarantined.store(true, Ordering::SeqCst);
                            self.quarantined.fetch_add(1, Ordering::SeqCst);
                            report.quarantined.push((s, r));
                        }
                    }
                    Err(_) => {
                        replica.dead.store(true, Ordering::SeqCst);
                        self.dead.fetch_add(1, Ordering::SeqCst);
                        report.unreachable.push((s, r));
                    }
                }
            }
        }
        report
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            shards: self.shards.len(),
            replicas: self.shards.iter().map(|s| s.replicas.len()).sum(),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            dead: self.dead.load(Ordering::SeqCst),
            failovers: self.failovers.load(Ordering::SeqCst),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }

    /// The same counters in the wire `Stats` shape, so fleet health can
    /// be surfaced through the existing `StatsReply` plumbing
    /// (`quarantined` / `failovers` are the fleet-owned fields there).
    pub fn wire_stats(&self) -> WireStats {
        let s = self.stats();
        WireStats {
            connections: s.replicas as u64,
            requests: s.queries,
            batches: 0,
            largest_batch: 0,
            rejected_overload: 0,
            quarantined: s.quarantined,
            failovers: s.failovers,
            degraded: s.quarantined > 0 || s.dead > 0,
        }
    }

    /// The replica addresses of `shard`, in preference order, with their
    /// health (for operators/tests; `true` = healthy).
    pub fn replica_health(&self, shard: usize) -> Vec<(String, bool)> {
        self.shards[shard].replicas.iter().map(|r| (r.addr.clone(), r.healthy())).collect()
    }

    /// Which shard owns global row `node`. The partition is
    /// `start(s) = s·n/k` (monotone), so a partition-point search on the
    /// range ends is exact.
    fn shard_of(&self, node: u64) -> usize {
        self.shards.partition_point(|s| s.range.end <= node)
    }

    /// One shard query with failover: tries healthy replicas in
    /// preference order; a replica whose call fails (after the client's
    /// own bounded retry) is declared dead and the next one is tried,
    /// ticking `failovers`.
    fn shard_call(&self, s: usize, nodes: &[u64]) -> Result<Mat, FleetError> {
        let shard = &self.shards[s];
        for replica in &shard.replicas {
            if !replica.healthy() {
                continue;
            }
            let result = replica.conn.lock().unwrap().shard_query(nodes, self.classes);
            match result {
                Ok(m) => return Ok(m),
                Err(WireError::Server { code, message }) => {
                    // The worker answered: rerouting cannot change a typed
                    // refusal (routing bug, lost assignment) — surface it.
                    return Err(FleetError::Wire(WireError::Server { code, message }));
                }
                Err(_) => {
                    replica.dead.store(true, Ordering::SeqCst);
                    self.dead.fetch_add(1, Ordering::SeqCst);
                    self.failovers.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        Err(FleetError::NoHealthyReplica { shard: s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_store;

    /// Spawns `count` in-process workers; returns their addresses and the
    /// handles/joins needed to tear them down.
    fn spawn_workers(
        count: usize,
    ) -> (Vec<String>, Vec<ServerHandle>, Vec<std::thread::JoinHandle<()>>) {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        // Short worker-side read timeout so idle/orphaned connection
        // threads exit quickly and teardown joins stay fast.
        let config = ServerConfig { read_timeout: Duration::from_secs(2), ..Default::default() };
        for _ in 0..count {
            let worker = Arc::new(ShardWorker::bind(config, "127.0.0.1:0").unwrap());
            addrs.push(worker.local_addr().to_string());
            handles.push(worker.handle());
            let w = worker.clone();
            joins.push(std::thread::spawn(move || {
                w.run().unwrap();
            }));
        }
        (addrs, handles, joins)
    }

    fn teardown(handles: Vec<ServerHandle>, joins: Vec<std::thread::JoinHandle<()>>) {
        for h in &handles {
            h.stop();
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn partition_covers_all_rows_and_routing_is_exact() {
        let model = tiny_store();
        let (addrs, handles, joins) = spawn_workers(3);
        let topology: Vec<Vec<String>> = addrs.into_iter().map(|a| vec![a]).collect();
        let fleet = Coordinator::deploy(model, &topology, FleetConfig::default()).unwrap();
        let n = model.num_nodes() as u64;
        // Every row maps to exactly one shard whose range contains it.
        for node in 0..n {
            let s = fleet.shard_of(node);
            assert!(fleet.shards[s].range.contains(&node));
        }
        // Ranges tile [0, n) contiguously.
        assert_eq!(fleet.shards.first().unwrap().range.start, 0);
        assert_eq!(fleet.shards.last().unwrap().range.end, n);
        for w in fleet.shards.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start);
        }
        teardown(handles, joins);
    }

    #[test]
    fn fleet_answers_match_in_process_bitwise() {
        let model = tiny_store();
        let (addrs, handles, joins) = spawn_workers(2);
        let topology: Vec<Vec<String>> = addrs.into_iter().map(|a| vec![a]).collect();
        let fleet = Coordinator::deploy(model, &topology, FleetConfig::default()).unwrap();
        let mut session = model.session();
        let n = model.num_nodes();
        for node in [0usize, 1, n / 2, n - 1] {
            let local = session.logits_batch(&[node]).as_slice().to_vec();
            let remote = fleet.query(node as u64).unwrap();
            assert_eq!(local, remote, "node {node} differs from in-process answer");
        }
        // A bulk spanning both shards, unordered and with a duplicate.
        let nodes: Vec<u64> = vec![n as u64 - 1, 0, (n / 2) as u64, 0];
        let got = fleet.bulk(&nodes).unwrap();
        for (i, &node) in nodes.iter().enumerate() {
            let want = session.logits_batch(&[node as usize]).as_slice().to_vec();
            assert_eq!(got.row(i), &want[..], "bulk row {i} differs");
        }
        assert_eq!(fleet.stats().queries, 4 + nodes.len() as u64);
        teardown(handles, joins);
    }

    #[test]
    fn deploy_rejects_bad_topologies() {
        let model = tiny_store();
        let err = Coordinator::deploy(model, &[], FleetConfig::default()).unwrap_err();
        assert!(matches!(err, FleetError::Config(_)));
        let err = Coordinator::deploy(model, &[Vec::new()], FleetConfig::default()).unwrap_err();
        assert!(matches!(err, FleetError::Config(_)));
        // More shards than rows cannot give every shard ≥ 1 row.
        let huge: Vec<Vec<String>> =
            (0..model.num_nodes() + 1).map(|_| vec!["127.0.0.1:1".to_string()]).collect();
        let err = Coordinator::deploy(model, &huge, FleetConfig::default()).unwrap_err();
        assert!(matches!(err, FleetError::Config(_)));
        // An unreachable worker is a deploy-time rejection, not a hang.
        let cfg = FleetConfig { retries: 0, ..Default::default() };
        let err = Coordinator::deploy(model, &[vec!["127.0.0.1:1".to_string()]], cfg).unwrap_err();
        assert!(matches!(err, FleetError::ReplicaRejected { shard: 0, .. }));
    }

    #[test]
    fn worker_refuses_plain_queries_and_unassigned_shard_queries() {
        let (addrs, handles, joins) = spawn_workers(1);
        let mut client = GconClient::connect(addrs[0].as_str()).unwrap();
        // Unassigned worker announces an empty store…
        assert_eq!(client.info().nodes, 0);
        // …refuses shard queries with NotAssigned…
        let err = client.shard_query(&[0], 2).unwrap_err();
        assert!(matches!(err, WireError::Server { code: ErrorCode::NotAssigned, .. }));
        let err = client.shard_fingerprints(64).unwrap_err();
        assert!(matches!(err, WireError::Server { code: ErrorCode::NotAssigned, .. }));
        // …and always refuses plain queries (they belong to the
        // coordinator), assigned or not.
        let err = client.logits(0).unwrap_err();
        assert!(matches!(err, WireError::Server { code: ErrorCode::NotAssigned, .. }));
        teardown(handles, joins);
    }

    /// `requests` counts answered rows, as on `gcond`: a 3-node shard
    /// query is 3, and assignment, fingerprints, refusals and the `Stats`
    /// frame itself are 0.
    #[test]
    fn worker_stats_count_answered_rows() {
        let model = tiny_store();
        let (addrs, handles, joins) = spawn_workers(1);
        let mut client = GconClient::connect(addrs[0].as_str()).unwrap();
        let n = model.num_nodes();
        client.shard_assign(0, 0, &model.slice_bytes(0, n)).unwrap();
        let got = client.shard_query(&[0, 3, n as u64 - 1], model.num_classes()).unwrap();
        assert_eq!(got.rows(), 3);
        client.shard_fingerprints(64).unwrap();
        assert!(client.logits(0).is_err(), "plain queries are refused");
        let stats = client.stats().unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.connections, 1);
        teardown(handles, joins);
    }

    #[test]
    fn corrupted_artifact_is_refused_and_session_survives() {
        let model = tiny_store();
        let (addrs, handles, joins) = spawn_workers(1);
        let mut client = GconClient::connect(addrs[0].as_str()).unwrap();
        let mut bytes = model.slice_bytes(0, model.num_nodes()).to_vec();
        bytes[8] ^= 0xFF; // break the header
        let err = client.shard_assign(0, 0, &bytes).unwrap_err();
        assert!(matches!(err, WireError::Server { code: ErrorCode::BadFrame, .. }));
        // The session is still usable: a good assign now succeeds.
        let good = model.slice_bytes(0, model.num_nodes());
        let rows = client.shard_assign(0, 0, &good).unwrap();
        assert_eq!(rows, model.num_nodes() as u64);
        teardown(handles, joins);
    }

    #[test]
    fn quarantine_on_fingerprint_divergence() {
        let model = tiny_store();
        let (addrs, handles, joins) = spawn_workers(2);
        let topology = vec![addrs.clone()]; // one shard, two replicas
        let fleet = Coordinator::deploy(model, &topology, FleetConfig::default()).unwrap();
        assert_eq!(fleet.stats().quarantined, 0);
        // Corrupt replica 1 out-of-band: re-assign it a payload with one
        // flipped store byte that still decodes (mantissa bit of the last
        // theta entry) — exactly the divergence consensus must catch.
        let mut bytes = model.slice_bytes(0, model.num_nodes()).to_vec();
        let len = bytes.len();
        bytes[len - 3] ^= 0x01;
        let mut side = GconClient::connect(addrs[1].as_str()).unwrap();
        side.shard_assign(0, 0, &bytes).unwrap();
        let report = fleet.consensus_check();
        assert_eq!(report.quarantined, vec![(0, 1)]);
        assert_eq!(fleet.stats().quarantined, 1);
        assert_eq!(fleet.wire_stats().quarantined, 1);
        assert!(fleet.wire_stats().degraded);
        // Queries still served (replica 0), bitwise correct.
        let mut session = model.session();
        let want = session.logits_batch(&[3]).as_slice().to_vec();
        assert_eq!(fleet.query(3).unwrap(), want);
        // The quarantined replica is reported unhealthy.
        assert!(!fleet.replica_health(0)[1].1);
        teardown(handles, joins);
    }

    #[test]
    fn failover_reroutes_to_surviving_replica() {
        let model = tiny_store();
        let (addrs, mut handles, mut joins) = spawn_workers(2);
        let topology = vec![addrs]; // one shard, two replicas
                                    // One reconnect-and-replay: cures a stale-but-alive replica
                                    // (server-side idle timeout) without masking a dead one.
        let cfg = FleetConfig {
            retries: 1,
            read_timeout: Duration::from_millis(500),
            ..Default::default()
        };
        let fleet = Coordinator::deploy(model, &topology, cfg).unwrap();
        let mut session = model.session();
        let want = session.logits_batch(&[5]).as_slice().to_vec();
        assert_eq!(fleet.query(5).unwrap(), want);
        // Stop replica 0 (the preferred one); its connection dies.
        handles.remove(0).stop();
        joins.remove(0).join().unwrap();
        let got = fleet.query(5).unwrap();
        assert_eq!(got, want, "failover answer must be bitwise identical");
        let stats = fleet.stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.dead, 1);
        teardown(handles, joins);
    }
}
