//! Loopback integration suite for the `gcond` daemon: spawns the real
//! binary on an ephemeral port and proves the acceptance contract of the
//! networked serving layer end to end:
//!
//! - remote answers are **bitwise identical** to in-process
//!   `gcon-core::infer`, including under concurrent clients mixing single
//!   and bulk queries;
//! - hostile traffic — truncated frames, bit-flipped frames, oversized
//!   frames, wrong tokens, garbage before handshake — is rejected with
//!   typed errors or a dropped connection, and the server keeps serving
//!   healthy clients afterwards (no panic, no wedge);
//! - idle connections are reclaimed by the read timeout;
//! - a `ServingModel` persisted to a v3 store file restores bitwise and is
//!   exactly what the daemon serves after an O(open) restart.
//!
//! The session contract (hostile frames, forged tokens, idle reclamation)
//! is one session core shared by both daemon roles, so those tests run
//! against `gcond --store` and `gcond --shard` alike.

use gcon::core::infer::private_logits;
use gcon::core::train::train_gcon;
use gcon::core::{GconConfig, TrainedGcon};
use gcon::graph::{Csr, Graph};
use gcon::serve::wire::{
    read_frame, write_frame, ErrorCode, Request, Response, WireError, DEFAULT_MAX_FRAME,
    PROTO_VERSION,
};
use gcon::serve::{GconClient, ServingMode, ServingModel, StoreDtype};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

/// Train once per test binary; every test shares the same reference model,
/// graph, features, and persisted (private-mode, f64) store file. The
/// store dtype is pinned to f64 so the bitwise-vs-`infer` assertions hold
/// under any ambient `GCON_STORE_DTYPE`.
fn fixture() -> &'static (TrainedGcon, Graph, Csr, std::path::PathBuf) {
    static FIXTURE: OnceLock<(TrainedGcon, Graph, Csr, std::path::PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = gcon::datasets::two_moons_graph(7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut config = GconConfig::default();
        config.encoder.epochs = 10;
        config.optimizer.max_iters = 60;
        let model = train_gcon(
            &config,
            &dataset.graph,
            &dataset.features,
            &dataset.labels,
            &dataset.split.train,
            dataset.num_classes,
            2.0,
            dataset.default_delta(),
            &mut rng,
        );
        let store = ServingModel::build_with_dtype(
            &model,
            &dataset.graph,
            &dataset.features,
            ServingMode::Private,
            StoreDtype::F64,
        );
        let dir = std::env::temp_dir().join(format!("gcond_loopback_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.gconstore");
        store.save(&path).unwrap();
        (model, dataset.graph, dataset.features, path)
    })
}

/// The two `gcond` roles the session-conformance tests run against.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// `gcond --store` over the fixture store.
    Store,
    /// `gcond --shard`, unassigned until a test ships it the fixture store.
    Shard,
}

const ROLES: [Role; 2] = [Role::Store, Role::Shard];

impl Role {
    fn spawn(self, env: &[(&str, &str)]) -> Daemon {
        match self {
            Role::Store => {
                let store_path = fixture().3.to_str().expect("utf-8 temp path");
                Daemon::spawn(&["--store", store_path], env)
            }
            Role::Shard => Daemon::spawn(&["--shard"], env),
        }
    }
}

/// A running `gcond` child on an ephemeral port; killed on drop so
/// failing tests don't leak daemons.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(args: &[&str], env: &[(&str, &str)]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_gcond"));
        cmd.args(args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawning gcond");
        // The daemon's contract: first stdout line is `listening on ADDR`.
        let stdout = child.stdout.take().expect("gcond stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("reading gcond banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected gcond banner: {line:?}"))
            .to_string();
        Self { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The survivor check: a healthy client is still served bitwise vs
/// in-process inference. `gcond --store` answers single queries; a
/// `gcond --shard` worker adopts the fixture store and answers a shard
/// query.
fn assert_serves_bitwise(role: Role, daemon: &Daemon) {
    let (model, graph, x, store_path) = fixture();
    let reference = private_logits(model, graph, x);
    let mut client = GconClient::connect(&daemon.addr).expect("connect");
    assert!(client.health().expect("health"), "{role:?}: healthy");
    let nodes = [5u64, 0, graph.num_nodes() as u64 - 1];
    match role {
        Role::Store => {
            for &node in &nodes {
                let logits = client.logits(node).expect("query");
                assert_eq!(logits.as_slice(), reference.row(node as usize), "node {node}");
            }
        }
        Role::Shard => {
            let store = ServingModel::load(store_path).expect("loading store");
            let n = store.num_nodes();
            client.shard_assign(0, 0, &store.slice_bytes(0, n)).expect("shard assign");
            let got = client.shard_query(&nodes, store.num_classes()).expect("shard query");
            for (r, &node) in nodes.iter().enumerate() {
                assert_eq!(got.row(r), reference.row(node as usize), "shard: node {node}");
            }
        }
    }
}

#[test]
fn remote_answers_match_infer_bitwise_under_concurrent_clients() {
    let (model, graph, x, _) = fixture();
    let reference = private_logits(model, graph, x);
    let daemon = Role::Store.spawn(&[]);
    let n = graph.num_nodes();

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let addr = daemon.addr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = GconClient::connect(&addr).expect("connect");
                assert_eq!(client.info().nodes as usize, n);
                // Single queries, striped per thread so the server's
                // micro-batcher sees genuinely concurrent traffic.
                for q in 0..40 {
                    let node = (t * 37 + q * 11) % n;
                    let logits = client.logits(node as u64).expect("query");
                    assert_eq!(
                        logits.as_slice(),
                        reference.row(node),
                        "thread {t}: node {node} must answer bitwise vs infer"
                    );
                }
                // A bulk query covering every node, reassembled from chunks.
                let nodes: Vec<u64> = (0..n as u64).collect();
                let bulk = client.logits_bulk(&nodes).expect("bulk");
                assert_eq!(
                    bulk.as_slice(),
                    reference.as_slice(),
                    "thread {t}: bulk answer must be the whole logit matrix, bitwise"
                );
                client.bye().expect("bye");
            });
        }
    });
}

#[test]
fn loaded_store_serves_exactly_what_build_produced() {
    let (model, graph, x, store_path) = fixture();
    // The daemon only ever saw the *file*; prove the file round-trips the
    // built store bitwise, so the daemon's answers are `build`'s answers.
    let built =
        ServingModel::build_with_dtype(model, graph, x, ServingMode::Private, StoreDtype::F64);
    let loaded = ServingModel::load(store_path).expect("loading store file");
    assert_eq!(
        loaded.store_f64().unwrap().as_slice(),
        built.store_f64().unwrap().as_slice(),
        "persisted store must restore bitwise-equal to build"
    );
    assert_eq!(loaded.mode(), built.mode());
    let daemon = Role::Store.spawn(&[]);
    let mut client = GconClient::connect(&daemon.addr).expect("connect");
    for node in [0usize, 1, graph.num_nodes() - 1] {
        assert_eq!(client.logits(node as u64).expect("query"), built.logits(node));
    }
}

#[test]
fn server_stats_and_health_flow_over_the_wire() {
    let daemon = Role::Store.spawn(&[]);
    let mut client = GconClient::connect(&daemon.addr).expect("connect");
    assert!(client.health().expect("health"), "fresh static store is healthy");
    let _ = client.logits(3).expect("query");
    let _ = client.logits(4).expect("query");
    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 2, "stats must count served queries, got {stats:?}");
    assert!(stats.connections >= 1);
    assert!(!stats.degraded);
}

#[test]
fn out_of_range_and_wrong_token_are_typed_errors() {
    let daemon = Role::Store.spawn(&[]);
    let mut client = GconClient::connect(&daemon.addr).expect("connect");
    let n = client.info().nodes;
    match client.logits(n + 5) {
        Err(WireError::Server { code: ErrorCode::NodeOutOfRange, .. }) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    // The connection survives a typed error…
    let classes = client.info().classes as usize;
    assert_eq!(client.logits(0).expect("query after error").len(), classes);

    // …but a forged token closes it, after a BadToken error frame — on
    // either role, before the role sees the request.
    for role in ROLES {
        let daemon = role.spawn(&[]);
        let mut raw = TcpStream::connect(&daemon.addr).expect("raw connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut raw, &Request::Hello { proto: PROTO_VERSION }.encode()).unwrap();
        let ack = read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().expect("hello ack");
        let token = match Response::decode(&ack).unwrap() {
            Response::HelloAck { token, .. } => token ^ 1,
            other => panic!("{role:?}: expected HelloAck, got {other:?}"),
        };
        let forged = match role {
            Role::Store => Request::Query { token, node: 0 },
            Role::Shard => Request::ShardQuery { token, nodes: vec![0] },
        };
        write_frame(&mut raw, &forged.encode()).unwrap();
        let body = read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().expect("error frame");
        match Response::decode(&body).unwrap() {
            Response::Error { code: ErrorCode::BadToken, .. } => {}
            other => panic!("{role:?}: expected BadToken, got {other:?}"),
        }
        assert!(read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().is_none(), "{role:?}: closed");
    }
}

/// Hostile framing: oversized, truncated, and bit-flipped traffic must be
/// rejected (typed error or dropped connection) and must never take
/// either daemon role down — a healthy client checks bitwise answers
/// after the attacks.
#[test]
fn hostile_frames_are_rejected_and_server_survives() {
    for role in ROLES {
        let daemon = role.spawn(&[]);

        // 1. Oversized frame header → TooLarge error, connection closed
        //    (64 MiB announced against the 8 MiB default bound).
        {
            let mut raw = TcpStream::connect(&daemon.addr).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            raw.write_all(&(64u32 << 20).to_le_bytes()).unwrap();
            let body = read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().expect("error frame");
            match Response::decode(&body).unwrap() {
                Response::Error { code: ErrorCode::TooLarge, .. } => {}
                other => panic!("{role:?}: expected TooLarge, got {other:?}"),
            }
        }

        // 2. Garbage opcode, truncated payload, wrong protocol version →
        //    typed errors.
        for hostile in [vec![0xEEu8], vec![0x02u8, 1, 2, 3], Request::Hello { proto: 9 }.encode()] {
            let mut raw = TcpStream::connect(&daemon.addr).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(&mut raw, &hostile).unwrap();
            let body = read_frame(&mut raw, DEFAULT_MAX_FRAME).unwrap().expect("error frame");
            match Response::decode(&body).unwrap() {
                Response::Error { code: ErrorCode::BadFrame | ErrorCode::BadHandshake, .. } => {}
                other => panic!(
                    "{role:?}: expected BadFrame/BadHandshake for {hostile:?}, got {other:?}"
                ),
            }
        }

        // 3. Bit-flip every byte of a valid handshake frame, one connection
        //    each. Any outcome except a server crash is acceptable.
        let hello = Request::Hello { proto: PROTO_VERSION }.encode();
        for i in 0..hello.len() {
            let mut flipped = hello.clone();
            flipped[i] ^= 0x40;
            let mut raw = TcpStream::connect(&daemon.addr).expect("connect");
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(&mut raw, &flipped).unwrap();
            let mut sink = Vec::new();
            let _ = raw.read_to_end(&mut sink); // whatever the server said; it may just close
        }

        // 4. A torn frame: the header promises more bytes than are ever
        //    sent, then the socket drops — the server's framing treats the
        //    mid-frame disconnect as malformed and reclaims the thread.
        {
            let mut raw = TcpStream::connect(&daemon.addr).expect("connect");
            raw.write_all(&100u32.to_le_bytes()).unwrap();
            raw.write_all(&[1, 2, 3]).unwrap();
        }

        // After all of the above, the daemon still serves a healthy client.
        assert_serves_bitwise(role, &daemon);
    }
}

/// The timeout path: with a 200 ms read timeout, an idle raw connection is
/// reclaimed by either daemon role (closed) instead of pinning its thread
/// forever, and well-behaved clients are unaffected.
#[test]
fn idle_connections_are_reclaimed_by_read_timeout() {
    for role in ROLES {
        let daemon = role.spawn(&[("GCON_SERVER_READ_TIMEOUT_MS", "200")]);
        let mut idle = TcpStream::connect(&daemon.addr).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Send nothing; within ~200 ms the server must drop us — observed
        // as EOF (or reset) on our side, well before our own 10 s read
        // timeout.
        let mut sink = Vec::new();
        let started = std::time::Instant::now();
        let _ = idle.read_to_end(&mut sink);
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "{role:?}: idle connection should be closed by the server's read timeout"
        );
        // A prompt client on the same daemon still gets served.
        assert_serves_bitwise(role, &daemon);
    }
}

/// The reconnect/retry path: a server-side idle drop (read timeout
/// reclaiming the session) kills the connection under the client. A
/// zero-retry client surfaces the failure; a client with
/// `with_retries` transparently reconnects — fresh TCP, fresh `Hello`,
/// fresh token — replays the request, and still answers bitwise. The
/// retry budget is bounded: against a dead server it errors out instead
/// of hanging.
#[test]
fn client_retry_survives_server_side_drop_with_fresh_handshake() {
    let daemon = Role::Store.spawn(&[("GCON_SERVER_READ_TIMEOUT_MS", "200")]);
    let (model, graph, x, _) = fixture();
    let reference = private_logits(model, graph, x);
    let mut plain = GconClient::connect(&daemon.addr).expect("connect");
    let mut retrying = GconClient::connect(&daemon.addr).expect("connect").with_retries(2);
    assert_eq!(plain.logits(0).expect("warm query").as_slice(), reference.row(0));
    assert_eq!(retrying.logits(0).expect("warm query").as_slice(), reference.row(0));

    // Idle past the server's 200 ms read timeout: both sessions are
    // reclaimed server-side.
    std::thread::sleep(Duration::from_millis(600));
    assert!(plain.logits(1).is_err(), "zero-retry client must surface the dropped session");
    assert_eq!(
        retrying.logits(1).expect("retried query").as_slice(),
        reference.row(1),
        "reconnect-and-replay must answer bitwise"
    );

    // Bulk rides the same retry path (the whole stream is replayed).
    std::thread::sleep(Duration::from_millis(600));
    let nodes: Vec<u64> = (0..graph.num_nodes() as u64).collect();
    let bulk = retrying.logits_bulk(&nodes).expect("retried bulk");
    assert_eq!(bulk.as_slice(), reference.as_slice(), "retried bulk must be bitwise");

    // Against a dead server the retry budget is bounded: a typed error,
    // promptly, not a hang.
    drop(daemon);
    let started = std::time::Instant::now();
    assert!(retrying.logits(2).is_err(), "retries against a dead server must exhaust");
    assert!(started.elapsed() < Duration::from_secs(20), "bounded retry must not hang");
}

/// The bounded-inflight gate: with `GCON_SERVER_MAX_INFLIGHT=1`, 8-way
/// concurrent queries must either succeed or be rejected with a typed
/// `Overloaded` error (never a hang, never a panic), and the server-side
/// rejection counter must agree exactly with what clients observed.
#[test]
fn inflight_gate_rejects_with_overloaded_under_pressure() {
    let daemon = Role::Store.spawn(&[("GCON_SERVER_MAX_INFLIGHT", "1")]);
    let rejections = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let addr = daemon.addr.clone();
            let rejections = &rejections;
            scope.spawn(move || {
                let mut client = GconClient::connect(&addr).expect("connect");
                let classes = client.info().classes as usize;
                for q in 0..30 {
                    match client.logits(((t * 13 + q) % 20) as u64) {
                        Ok(logits) => assert_eq!(logits.len(), classes),
                        Err(WireError::Server { code: ErrorCode::Overloaded, .. }) => {
                            rejections.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected failure under load: {other:?}"),
                    }
                }
            });
        }
    });
    let mut client = GconClient::connect(&daemon.addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.rejected_overload,
        rejections.load(std::sync::atomic::Ordering::Relaxed),
        "server-side rejection counter must match client-observed Overloaded errors"
    );
}
