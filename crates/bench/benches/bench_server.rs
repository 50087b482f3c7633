//! Networked-serving bench: the `gcond` TCP path (`Server` + `GconClient`
//! over loopback) against the in-process serving paths it wraps, plus the
//! persisted-store restart cost.
//!
//! Three sections per run:
//!
//! - **serving paths** — per-query cost at batch ∈ {1, 8, 64} for the
//!   in-process paths (`BatchQueue::query_into` at batch 1, gathered
//!   `ServingSession::logits_batch` forwards at 8/64) and the networked
//!   paths (`GconClient::logits` at batch 1, `GconClient::logits_bulk` at
//!   8/64). The in-process/remote delta at each batch size is the wire +
//!   framing + syscall tax of the daemon; it shrinks as batching amortizes
//!   it, which is the point of the bulk opcode.
//! - **restart** — `ServingModel::build` (full repropagation: the cold
//!   start) vs `ServingModel::save` + `ServingModel::load` (the v3 store
//!   file round-trip: the warm restart). The load path does no propagation
//!   at all, so the build/load ratio is the restart speedup a persisted
//!   store buys.
//! - **sanity** — every remote answer is asserted bitwise-equal to the
//!   store before timing, so the numbers describe the *same* computation.
//!
//! Results are printed and written machine-readably to `BENCH_server.json`
//! at the workspace root (override with `GCON_BENCH_OUT`), stamped with the
//! host they were measured on (`gcon_bench::host_stamp_json`).
//! `GCON_BENCH_QUICK=1` shrinks the dataset and rep counts for CI smoke
//! runs; loopback TCP numbers on a loaded CI box are indicative, not
//! stable — the committed JSON comes from an idle run.

use gcon_bench::median_time_ns as time_ns;
use gcon_core::train::train_gcon;
use gcon_core::{GconConfig, PropagationStep};
use gcon_serve::{
    BatchConfig, BatchQueue, GconClient, Server, ServerConfig, ServingMode, ServingModel,
    StoreDtype,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Row {
    label: String,
    ns_per_query: f64,
}

fn main() {
    let quick =
        std::env::var("GCON_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    let scale = if quick { 0.12 } else { 0.3 };
    let dataset = gcon_datasets::cora_ml(scale, 7);
    let n = dataset.graph.num_nodes();
    println!(
        "bench_server: {} at scale {scale} ({n} nodes, {} edges), GCON_THREADS={}",
        dataset.name,
        dataset.graph.num_edges(),
        gcon_runtime::configured_width()
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Same head shape as bench_serve so the in-process rows are comparable
    // across the two reports.
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

    let mut sink = 0usize;
    let reps = if quick { 3 } else { 5 };

    // ---- restart: full repropagation vs v3 store file round-trip --------
    let build_ns = time_ns(reps, || {
        let s = ServingModel::build_with_dtype(
            &model,
            &dataset.graph,
            &dataset.features,
            ServingMode::Public,
            StoreDtype::F64,
        );
        sink ^= s.num_nodes();
    });
    let serving = ServingModel::build_with_dtype(
        &model,
        &dataset.graph,
        &dataset.features,
        ServingMode::Public,
        StoreDtype::F64,
    );
    let store_path = std::env::temp_dir().join("bench_server.gconstore");
    let save_ns = time_ns(reps, || {
        serving.save(&store_path).expect("saving store");
    });
    let load_ns = time_ns(reps, || {
        let s = ServingModel::load(&store_path).expect("loading store");
        sink ^= s.num_nodes();
    });
    let restored = ServingModel::load(&store_path).expect("loading store");
    assert_eq!(
        restored.store_f64().unwrap().as_slice(),
        serving.store_f64().unwrap().as_slice(),
        "restart equivalence broken: loaded store is not bitwise the built one"
    );
    std::fs::remove_file(&store_path).ok();
    println!(
        "  restart: build {build_ns:>12.0} ns   save {save_ns:>10.0} ns   \
         load {load_ns:>10.0} ns   (load is {:.0}x faster than rebuild)",
        build_ns / load_ns.max(1.0)
    );

    // ---- serving paths: in-process vs loopback TCP ----------------------
    let mut rows: Vec<Row> = Vec::new();
    let mut qrng = StdRng::seed_from_u64(99);
    let batch_reps = if quick { 20 } else { 50 };

    // In-process batch=1 through the micro-batcher (the queue the server
    // itself uses for single queries, with the server's default bound).
    let queue = BatchQueue::new(&serving, BatchConfig::default());
    let mut out = Vec::new();
    let node1 = qrng.gen_range(0..n);
    let ns = time_ns(batch_reps, || {
        queue.query_into(node1, &mut out);
        sink ^= out.len();
    });
    rows.push(Row { label: "in-process batch=1 (BatchQueue)".into(), ns_per_query: ns });

    // In-process gathered forwards at 8/64 (what bulk answers run on).
    let mut session = serving.session();
    for batch in [8usize, 64] {
        let nodes: Vec<usize> = (0..batch).map(|_| qrng.gen_range(0..n)).collect();
        let ns = time_ns(batch_reps, || {
            let logits = session.logits_batch(&nodes);
            sink ^= logits.rows();
        });
        rows.push(Row {
            label: format!("in-process batch={batch} (session)"),
            ns_per_query: ns / batch as f64,
        });
    }

    // The same three shapes over loopback TCP against a live server.
    let server = Server::bind(&serving, ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run().expect("server run"));
        let mut client = GconClient::connect(addr).expect("connect");

        // Sanity before timing: remote answers are bitwise the store's.
        let probe = qrng.gen_range(0..n);
        assert_eq!(
            client.logits(probe as u64).expect("probe query"),
            serving.logits(probe),
            "remote answer diverged from the store — equivalence broken"
        );

        let node = qrng.gen_range(0..n) as u64;
        let ns = time_ns(batch_reps, || {
            let logits = client.logits(node).expect("query");
            sink ^= logits.len();
        });
        rows.push(Row { label: "remote batch=1 (GconClient::logits)".into(), ns_per_query: ns });

        for batch in [8usize, 64] {
            let nodes: Vec<u64> = (0..batch).map(|_| qrng.gen_range(0..n) as u64).collect();
            let ns = time_ns(batch_reps, || {
                let logits = client.logits_bulk(&nodes).expect("bulk");
                sink ^= logits.rows();
            });
            rows.push(Row {
                label: format!("remote batch={batch} (logits_bulk)"),
                ns_per_query: ns / batch as f64,
            });
        }
        client.bye().expect("bye");
        handle.stop();
    });

    println!("  {:<44} {:>14} {:>14}", "path", "ns/query", "queries/sec");
    for row in &rows {
        println!("  {:<44} {:>14.0} {:>14.0}", row.label, row.ns_per_query, 1e9 / row.ns_per_query);
    }
    std::hint::black_box(sink);

    let mut json = String::from("{\n  \"bench\": \"server\",\n");
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
    json.push_str("  ],\n  \"restart\": {\n");
    json.push_str(&format!(
        "    \"build_ns\": {build_ns:.0},\n    \"save_ns\": {save_ns:.0},\n    \
         \"load_ns\": {load_ns:.0},\n    \"load_speedup_vs_build\": {:.1}\n",
        build_ns / load_ns.max(1.0)
    ));
    json.push_str("  }\n}\n");
    let out_path = std::env::var("GCON_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_server.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("failed to write BENCH_server.json");
    println!("  wrote {out_path}");
}
