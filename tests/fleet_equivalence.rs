//! Multi-process fleet conformance suite: spawns a real [`Coordinator`]
//! over real `gcond --shard` worker processes and proves the fleet
//! acceptance contract end to end:
//!
//! - fleet answers (single and bulk, any shard/replica topology) are
//!   **bitwise identical** to the single-process serving store — and, for
//!   the f64 store, to `gcon-core::infer` itself;
//! - the contract holds across a `shards × replicas × dtype` matrix, and
//!   under concurrent clients sharing one coordinator;
//! - routing is exact at shard boundaries (first/last row of every
//!   range), and out-of-range ids get typed errors, not crossed wires.

use gcon::core::infer::private_logits;
use gcon::core::train::train_gcon;
use gcon::core::{GconConfig, TrainedGcon};
use gcon::graph::{Csr, Graph};
use gcon::serve::{Coordinator, FleetConfig, FleetError, ServingMode, ServingModel, StoreDtype};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;

/// Train once per test binary; both store dtypes are built from the same
/// trained model so every matrix leg shares one ground truth.
fn fixture() -> &'static (TrainedGcon, Graph, Csr, ServingModel, ServingModel) {
    static FIXTURE: OnceLock<(TrainedGcon, Graph, Csr, ServingModel, ServingModel)> =
        OnceLock::new();
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
        let f64_store = ServingModel::build_with_dtype(
            &model,
            &dataset.graph,
            &dataset.features,
            ServingMode::Private,
            StoreDtype::F64,
        );
        let f32_store = ServingModel::build_with_dtype(
            &model,
            &dataset.graph,
            &dataset.features,
            ServingMode::Private,
            StoreDtype::F32,
        );
        (model, dataset.graph, dataset.features, f64_store, f32_store)
    })
}

/// A running `gcond --shard` worker child on an ephemeral port; killed on
/// drop so failing tests don't leak processes.
struct ShardDaemon {
    child: Child,
    addr: String,
}

impl ShardDaemon {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gcond"))
            .arg("--shard")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning gcond --shard");
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

impl Drop for ShardDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `shards × replicas` worker processes and shapes their addresses
/// into a deploy topology. The daemons must outlive the coordinator.
fn spawn_fleet(shards: usize, replicas: usize) -> (Vec<ShardDaemon>, Vec<Vec<String>>) {
    let daemons: Vec<ShardDaemon> = (0..shards * replicas).map(|_| ShardDaemon::spawn()).collect();
    let topology = (0..shards)
        .map(|s| (0..replicas).map(|r| daemons[s * replicas + r].addr.clone()).collect())
        .collect();
    (daemons, topology)
}

/// The conformance matrix: every (shards, replicas) topology × store
/// dtype must answer single and bulk queries bitwise equal to the
/// in-process store — and the f64 store is itself pinned bitwise to
/// `infer::private_logits`, closing the loop fleet → store → infer.
#[test]
fn fleet_matches_single_process_bitwise_across_topologies_and_dtypes() {
    let (model, graph, x, f64_store, f32_store) = fixture();
    let reference = private_logits(model, graph, x);
    let n = graph.num_nodes();

    for (shards, replicas) in [(1usize, 1usize), (2, 1), (2, 2), (3, 1)] {
        for store in [f64_store, f32_store] {
            let dtype = store.store_dtype();
            let (daemons, topology) = spawn_fleet(shards, replicas);
            let fleet = Coordinator::deploy(store, &topology, FleetConfig::default())
                .unwrap_or_else(|e| panic!("deploy {shards}x{replicas} {dtype:?}: {e}"));
            assert_eq!(fleet.num_nodes() as usize, n);

            // The in-process ground truth for this dtype.
            let mut session = store.session();
            let in_process = session.logits_batch(&(0..n).collect::<Vec<_>>()).clone();
            if dtype == StoreDtype::F64 {
                assert_eq!(
                    in_process.as_slice(),
                    reference.as_slice(),
                    "f64 store must itself be bitwise vs infer"
                );
            }

            // Single queries: shard boundaries, interior rows, extremes.
            let k = shards;
            let mut probes = vec![0, n - 1, n / 2];
            for s in 0..k {
                probes.push(s * n / k); // first row of shard s
                probes.push((s + 1) * n / k - 1); // last row of shard s
            }
            for &node in &probes {
                assert_eq!(
                    fleet.query(node as u64).unwrap().as_slice(),
                    in_process.row(node),
                    "{shards}x{replicas} {dtype:?}: node {node} must answer bitwise"
                );
            }

            // A bulk over every node in a shard-interleaving order: the
            // scatter-gather must reassemble rows to request positions.
            let nodes: Vec<u64> = (0..n as u64).rev().collect();
            let bulk = fleet.bulk(&nodes).unwrap();
            for (i, &node) in nodes.iter().enumerate() {
                assert_eq!(
                    bulk.row(i),
                    in_process.row(node as usize),
                    "{shards}x{replicas} {dtype:?}: bulk row {i} (node {node}) must be bitwise"
                );
            }

            assert_eq!(fleet.stats().failovers, 0, "healthy fleet must never fail over");
            drop(fleet);
            drop(daemons);
        }
    }
}

/// Concurrent clients sharing one coordinator (2 shards × 2 replicas):
/// mixed single/bulk traffic from several threads stays bitwise-correct —
/// per-replica connection locking must not cross answers between threads.
#[test]
fn concurrent_clients_through_one_coordinator_stay_bitwise_correct() {
    let (model, graph, x, f64_store, _) = fixture();
    let reference = private_logits(model, graph, x);
    let n = graph.num_nodes();
    let (_daemons, topology) = spawn_fleet(2, 2);
    let fleet = Coordinator::deploy(f64_store, &topology, FleetConfig::default()).unwrap();

    std::thread::scope(|scope| {
        for t in 0..3usize {
            let fleet = &fleet;
            let reference = &reference;
            scope.spawn(move || {
                for q in 0..25 {
                    let node = (t * 37 + q * 11) % n;
                    assert_eq!(
                        fleet.query(node as u64).unwrap().as_slice(),
                        reference.row(node),
                        "thread {t}: node {node} must answer bitwise under concurrency"
                    );
                }
                // A striped bulk crossing both shards.
                let nodes: Vec<u64> = (0..n as u64).filter(|v| v % 3 == t as u64).collect();
                let bulk = fleet.bulk(&nodes).unwrap();
                for (i, &node) in nodes.iter().enumerate() {
                    assert_eq!(
                        bulk.row(i),
                        reference.row(node as usize),
                        "thread {t}: bulk node {node} must answer bitwise under concurrency"
                    );
                }
            });
        }
    });
    let stats = fleet.stats();
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.quarantined, 0);
}

/// Routing edges: out-of-range ids are typed errors (single and bulk),
/// never a wrong shard's answer or a hang.
#[test]
fn out_of_range_nodes_get_typed_errors() {
    let (_, graph, _, f64_store, _) = fixture();
    let n = graph.num_nodes() as u64;
    let (_daemons, topology) = spawn_fleet(2, 1);
    let fleet = Coordinator::deploy(f64_store, &topology, FleetConfig::default()).unwrap();
    assert!(matches!(
        fleet.query(n + 3),
        Err(FleetError::NodeOutOfRange { node, nodes }) if node == n + 3 && nodes == n
    ));
    assert!(matches!(
        fleet.bulk(&[0, n]),
        Err(FleetError::NodeOutOfRange { node, nodes }) if node == n && nodes == n
    ));
}
