//! Fleet-serving bench: the sharded `Coordinator` → `ShardWorker` path
//! against the single-process serving paths it scales out, plus the cost
//! of a failover.
//!
//! Four sections per run:
//!
//! - **deploy** — partitioning + slicing + shipping the store to every
//!   worker and fingerprint-verifying it (the fleet's cold start).
//! - **serving paths** — per-query cost at batch ∈ {1, 64} for the
//!   in-process session, a 1-shard fleet, and a 2-shard fleet (workers
//!   are in-process `ShardWorker`s on loopback TCP — same wire path as
//!   `gcond --shard`, minus process isolation). The 1-shard/in-process
//!   delta is the wire tax; the 2-shard row shows what scatter-gather
//!   adds (two sockets, half-size shards).
//! - **failover** — latency of the first query after a replica's worker
//!   is stopped: detection (dead connection) + reroute + answer.
//! - **sanity** — every fleet answer is asserted bitwise-equal to the
//!   store before timing, so all rows describe the same computation.
//!
//! Results are printed and written machine-readably to `BENCH_fleet.json`
//! at the workspace root (override with `GCON_BENCH_OUT`), stamped with the
//! host they were measured on (`gcon_bench::host_stamp_json`).
//! `GCON_BENCH_QUICK=1` shrinks the dataset and rep counts for CI smoke
//! runs; loopback TCP numbers on a loaded CI box are indicative, not
//! stable — the committed JSON comes from an idle run.

use gcon_bench::median_time_ns as time_ns;
use gcon_core::train::train_gcon;
use gcon_core::{GconConfig, PropagationStep};
use gcon_serve::{
    Coordinator, FleetConfig, ServerConfig, ServingMode, ServingModel, ShardWorker, StoreDtype,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

struct Row {
    label: String,
    ns_per_query: f64,
}

/// In-process shard workers on ephemeral loopback ports (the bench runs
/// inside one process: `CARGO_BIN_EXE_*` is unavailable to bench crates,
/// and the wire path is identical either way).
struct Workers {
    addrs: Vec<String>,
    handles: Vec<gcon_serve::ServerHandle>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl Workers {
    fn spawn(count: usize) -> Self {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..count {
            let worker =
                Arc::new(ShardWorker::bind(ServerConfig::default(), "127.0.0.1:0").expect("bind"));
            addrs.push(worker.local_addr().to_string());
            handles.push(worker.handle());
            joins.push(std::thread::spawn(move || worker.run().expect("worker run")));
        }
        Self { addrs, handles, joins }
    }

    fn stop(self) {
        for h in &self.handles {
            h.stop();
        }
        for j in self.joins {
            j.join().expect("worker join");
        }
    }
}

fn main() {
    let quick =
        std::env::var("GCON_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    let scale = if quick { 0.12 } else { 0.3 };
    let dataset = gcon_datasets::cora_ml(scale, 7);
    let n = dataset.graph.num_nodes();
    println!(
        "bench_fleet: {} at scale {scale} ({n} nodes, {} edges), GCON_THREADS={}",
        dataset.name,
        dataset.graph.num_edges(),
        gcon_runtime::configured_width()
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Same head shape as bench_server so rows are comparable across the
    // two reports.
    let config = GconConfig {
        encoder: gcon_core::encoder::EncoderConfig {
            hidden: 32,
            d1: 32,
            epochs: if quick { 20 } else { 60 },
            lr: 0.02,
            weight_decay: 1e-5,
        },
        steps: vec![PropagationStep::Finite(1), PropagationStep::Finite(2)],
        optimizer: gcon_core::model::OptimizerConfig {
            max_iters: if quick { 100 } else { 400 },
            grad_tol: 1e-7,
        },
        ..Default::default()
    };
    let model = train_gcon(
        &config,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        4.0,
        1e-3,
        &mut rng,
    );
    let serving = ServingModel::build_with_dtype(
        &model,
        &dataset.graph,
        &dataset.features,
        ServingMode::Public,
        StoreDtype::F64,
    );

    let mut sink = 0usize;
    let mut rows: Vec<Row> = Vec::new();
    let mut qrng = StdRng::seed_from_u64(99);
    let reps = if quick { 3 } else { 5 };
    let batch_reps = if quick { 20 } else { 50 };

    // ---- in-process baseline -------------------------------------------
    let mut session = serving.session();
    let node1 = qrng.gen_range(0..n);
    let ns = time_ns(batch_reps, || {
        let logits = session.logits_batch(&[node1]);
        sink ^= logits.rows();
    });
    rows.push(Row { label: "in-process batch=1 (session)".into(), ns_per_query: ns });
    let batch_nodes: Vec<usize> = (0..64).map(|_| qrng.gen_range(0..n)).collect();
    let ns = time_ns(batch_reps, || {
        let logits = session.logits_batch(&batch_nodes);
        sink ^= logits.rows();
    });
    rows.push(Row { label: "in-process batch=64 (session)".into(), ns_per_query: ns / 64.0 });

    // ---- deploy cost + fleet serving paths, 1 shard and 2 shards -------
    let mut deploy_ns = Vec::new();
    for shards in [1usize, 2] {
        let workers = Workers::spawn(shards);
        let topology: Vec<Vec<String>> = workers.addrs.iter().map(|a| vec![a.clone()]).collect();
        let ns = time_ns(reps, || {
            let fleet =
                Coordinator::deploy(&serving, &topology, FleetConfig::default()).expect("deploy");
            sink ^= fleet.num_nodes() as usize;
        });
        deploy_ns.push((shards, ns));
        let fleet =
            Coordinator::deploy(&serving, &topology, FleetConfig::default()).expect("deploy");

        // Sanity before timing: fleet answers are bitwise the store's.
        let probe = qrng.gen_range(0..n);
        assert_eq!(
            fleet.query(probe as u64).expect("probe query"),
            serving.logits(probe),
            "fleet answer diverged from the store — equivalence broken"
        );

        let node = qrng.gen_range(0..n) as u64;
        let ns = time_ns(batch_reps, || {
            let logits = fleet.query(node).expect("query");
            sink ^= logits.len();
        });
        rows.push(Row { label: format!("fleet {shards}-shard batch=1"), ns_per_query: ns });

        let nodes: Vec<u64> = (0..64).map(|_| qrng.gen_range(0..n) as u64).collect();
        let ns = time_ns(batch_reps, || {
            let logits = fleet.bulk(&nodes).expect("bulk");
            sink ^= logits.rows();
        });
        rows.push(Row {
            label: format!("fleet {shards}-shard batch=64 (bulk)"),
            ns_per_query: ns / 64.0,
        });
        drop(fleet);
        workers.stop();
    }

    // ---- failover latency: first answer after a replica dies -----------
    // One shard, two replicas; take the preferred worker fully down
    // (stop + join — a stopped accept loop alone keeps live sessions
    // serving), then time the query that discovers the dead connection,
    // reroutes, and answers. Short worker read timeouts bound the
    // teardown; one client retry covers the surviving replica's own
    // idled-out session (the production reconnect path).
    let failover_ns = {
        let worker_cfg = ServerConfig {
            read_timeout: std::time::Duration::from_millis(200),
            ..Default::default()
        };
        let spawn = || {
            let w = Arc::new(ShardWorker::bind(worker_cfg, "127.0.0.1:0").expect("bind"));
            let addr = w.local_addr().to_string();
            let handle = w.handle();
            let join = std::thread::spawn(move || w.run().expect("worker run"));
            (addr, handle, join)
        };
        let (addr0, handle0, join0) = spawn();
        let (addr1, handle1, join1) = spawn();
        let topology = vec![vec![addr0, addr1]];
        let cfg = FleetConfig { retries: 1, ..Default::default() };
        let fleet = Coordinator::deploy(&serving, &topology, cfg).expect("deploy");
        let node = qrng.gen_range(0..n) as u64;
        let want = fleet.query(node).expect("warm query");
        handle0.stop();
        join0.join().expect("worker join"); // all its sessions are gone now
        let started = std::time::Instant::now();
        let got = fleet.query(node).expect("failover query");
        let elapsed = started.elapsed().as_nanos() as f64;
        assert_eq!(got, want, "failover answer must be bitwise identical");
        assert_eq!(fleet.stats().failovers, 1);
        drop(fleet);
        handle1.stop();
        join1.join().expect("worker join");
        elapsed
    };

    println!("  {:<44} {:>14} {:>14}", "path", "ns/query", "queries/sec");
    for row in &rows {
        println!("  {:<44} {:>14.0} {:>14.0}", row.label, row.ns_per_query, 1e9 / row.ns_per_query);
    }
    for (shards, ns) in &deploy_ns {
        println!("  deploy {shards}-shard: {ns:>12.0} ns");
    }
    println!("  failover (detect + reroute + answer): {failover_ns:>12.0} ns");
    std::hint::black_box(sink);

    let mut json = String::from("{\n  \"bench\": \"fleet\",\n");
    json.push_str(&format!("  \"host\": {},\n", gcon_bench::host_stamp_json()));
    json.push_str(&format!("  \"nodes\": {n},\n  \"quick\": {quick},\n"));
    json.push_str("  \"unit\": \"ns_per_query_median\",\n  \"paths\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"path\": \"{}\", \"ns_per_query\": {:.0}, \"queries_per_sec\": {:.0} }}{}\n",
            row.label,
            row.ns_per_query,
            1e9 / row.ns_per_query,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"deploy\": {\n");
    for (i, (shards, ns)) in deploy_ns.iter().enumerate() {
        json.push_str(&format!(
            "    \"shards_{shards}_ns\": {ns:.0}{}\n",
            if i + 1 == deploy_ns.len() { "" } else { "," }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!("  \"failover_ns\": {failover_ns:.0}\n}}\n"));
    let out_path = std::env::var("GCON_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_fleet.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("failed to write BENCH_fleet.json");
    println!("  wrote {out_path}");
}
