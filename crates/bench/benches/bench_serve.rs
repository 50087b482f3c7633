//! Serving-layer throughput bench: precomputed-store + micro-batched
//! inference (`gcon-serve`) against the naive per-query path that re-runs
//! the whole `public_predict` pipeline for every query.
//!
//! Four measurements per run:
//!
//! - **naive/query** — one full `public_logits` pipeline per query (encode,
//!   normalize, build `Ã`, propagate every scale over the whole graph, full
//!   head): what serving costs *without* the feature store.
//! - **store build** — the one-time `ServingModel::build` cost (identical
//!   work to a single naive query; the store then amortizes it over every
//!   subsequent query).
//! - **serve @ batch ∈ {1, 8, 64, 256}** — the steady-state gathered head
//!   forward through one `ServingSession`, per-query cost = batch time /
//!   batch size. Each batch size is timed on an **f64 store and an f32
//!   store back-to-back** ([`gcon_serve::StoreDtype`]): the f32 rows halve
//!   the store's memory traffic and double the SIMD lanes of the head GEMM,
//!   and the report records the per-batch f32-over-f64 speedup alongside
//!   the usual vs-naive ratio.
//! - **micro-batched** — end-to-end `BatchQueue` throughput with 4
//!   submitting threads (includes queueing/wake-up overhead and reports the
//!   realized mean batch size — whatever queued while the previous forward
//!   ran, since the combiner has no batching window).
//!
//! Every row reports queries/sec plus the speedup over naive; results are
//! printed, and written machine-readably to `BENCH_serve.json` at the
//! workspace root (override with `GCON_BENCH_OUT` — the file is
//! overwritten, so point each bench at its own path), stamped with the
//! host they were measured on.
//! `GCON_BENCH_QUICK=1` shrinks the dataset and rep counts for CI smoke
//! runs. Thread-scaling caveats of the 1-core dev box apply (see
//! `crates/bench/README.md`); the naive-vs-batched ratio is dominated by
//! work *elided*, not by threading, so it is meaningful even there.

use gcon_bench::median_time_ns as time_ns;
use gcon_core::infer::{public_logits, public_predict};
use gcon_core::train::train_gcon;
use gcon_core::{GconConfig, PropagationStep};
use gcon_serve::{BatchConfig, BatchQueue, ServingMode, ServingModel, StoreDtype};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Row {
    label: String,
    ns_per_query: f64,
}

/// One f64-store vs f32-store pairing at a fixed batch size, timed
/// back-to-back so box drift cancels out of the ratio.
struct DtypePair {
    batch: usize,
    ns_f64: f64,
    ns_f32: f64,
}

fn main() {
    let quick =
        std::env::var("GCON_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    let scale = if quick { 0.12 } else { 0.3 };
    let dataset = gcon_datasets::cora_ml(scale, 7);
    let n = dataset.graph.num_nodes();
    println!(
        "bench_serve: {} at scale {scale} ({n} nodes, {} edges), GCON_THREADS={}",
        dataset.name,
        dataset.graph.num_edges(),
        gcon_runtime::configured_width()
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Head shape representative of the paper's Table II configs: d1 = 32
    // over two propagation scales freezes a 64-wide store, so the gathered
    // head forward is a `batch × 64 × c` GEMM rather than a toy one.
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

    let mut rows: Vec<Row> = Vec::new();

    // Naive per-query: the whole public pipeline for one answer. The
    // argmax row lookup is free next to propagation, so timing the logits
    // pipeline is timing `public_predict`-per-query.
    let naive_reps = if quick { 3 } else { 5 };
    let query_node = n / 2;
    let mut sink = 0usize;
    let naive_ns = time_ns(naive_reps, || {
        let logits = public_logits(&model, &dataset.graph, &dataset.features);
        sink ^= gcon_linalg::vecops::argmax(logits.row(query_node));
    });
    rows.push(Row { label: "naive/query".into(), ns_per_query: naive_ns });

    // One-time store build (== one naive query's feature stage + clone).
    let build_ns = time_ns(naive_reps, || {
        let s = ServingModel::build(&model, &dataset.graph, &dataset.features, ServingMode::Public);
        sink ^= s.num_nodes();
    });
    println!("  store build (one-time): {:>12.0} ns", build_ns);

    let serving = ServingModel::build_with_dtype(
        &model,
        &dataset.graph,
        &dataset.features,
        ServingMode::Public,
        StoreDtype::F64,
    );
    // Sanity: the store answers exactly what the naive path answers.
    assert_eq!(
        serving.predict_all(),
        public_predict(&model, &dataset.graph, &dataset.features),
        "serving diverged from public_predict — equivalence broken"
    );

    // The same store frozen in f32: half the bytes, double the GEMM lanes.
    // The drift contract is pinned by tests; here we only sanity-check that
    // predictions survive the quantization on this trained model.
    let serving32 = ServingModel::build_with_dtype(
        &model,
        &dataset.graph,
        &dataset.features,
        ServingMode::Public,
        StoreDtype::F32,
    );
    assert_eq!(
        serving32.predict_all(),
        serving.predict_all(),
        "f32 store flipped a prediction on the bench model — drift beyond contract"
    );

    // Steady-state gathered head forwards at fixed batch sizes, each batch
    // size timed on the f64 store then the f32 store back-to-back.
    let mut session = serving.session();
    let mut session32 = serving32.session();
    let mut qrng = StdRng::seed_from_u64(99);
    let mut pairs: Vec<DtypePair> = Vec::new();
    for batch in [1usize, 8, 64, 256] {
        let nodes: Vec<usize> = (0..batch).map(|_| qrng.gen_range(0..n)).collect();
        let ns = time_ns(50, || {
            let logits = session.logits_batch(&nodes);
            sink ^= logits.rows();
        });
        let ns32 = time_ns(50, || {
            let logits = session32.logits_batch(&nodes);
            sink ^= logits.rows();
        });
        rows.push(Row { label: format!("serve@batch={batch}"), ns_per_query: ns / batch as f64 });
        rows.push(Row {
            label: format!("serve@batch={batch} f32-store"),
            ns_per_query: ns32 / batch as f64,
        });
        pairs.push(DtypePair { batch, ns_f64: ns, ns_f32: ns32 });
    }

    // Micro-batcher end to end: 4 threads × `per_thread` queries each.
    let per_thread = if quick { 200 } else { 1000 };
    let threads = 4;
    let queue = BatchQueue::new(&serving, BatchConfig::default());
    let t = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let queue = &queue;
            scope.spawn(move || {
                let mut out = Vec::new();
                for q in 0..per_thread {
                    queue.query_into((tid * 37 + q * 11) % n, &mut out);
                }
            });
        }
    });
    let total_ns = t.elapsed().as_nanos() as f64;
    let stats = queue.stats();
    rows.push(Row {
        label: format!(
            "micro-batched ({} threads, mean batch {:.1})",
            threads,
            stats.requests as f64 / stats.batches.max(1) as f64
        ),
        ns_per_query: total_ns / stats.requests as f64,
    });

    println!("  {:<44} {:>14} {:>14} {:>12}", "path", "ns/query", "queries/sec", "vs naive");
    for row in &rows {
        println!(
            "  {:<44} {:>14.0} {:>14.0} {:>11.1}x",
            row.label,
            row.ns_per_query,
            1e9 / row.ns_per_query,
            naive_ns / row.ns_per_query
        );
    }
    println!(
        "  {:<44} {:>14} {:>14} {:>12}",
        "f32 store vs f64 store", "f64 ns", "f32 ns", "f32 gain"
    );
    for p in &pairs {
        println!(
            "  {:<44} {:>14.0} {:>14.0} {:>11.2}x",
            format!("head forward @ batch={}", p.batch),
            p.ns_f64,
            p.ns_f32,
            p.ns_f64 / p.ns_f32.max(1.0)
        );
    }
    std::hint::black_box(sink);

    let mut json = String::from("{\n  \"bench\": \"serve\",\n");
    json.push_str(&format!("  \"host\": {},\n", gcon_bench::host_stamp_json()));
    json.push_str(&format!("  \"nodes\": {n},\n  \"quick\": {quick},\n"));
    json.push_str("  \"unit\": \"ns_per_query_median\",\n  \"paths\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"path\": \"{}\", \"ns_per_query\": {:.0}, \"speedup_vs_naive\": {:.1} }}{}\n",
            row.label,
            row.ns_per_query,
            naive_ns / row.ns_per_query,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"f32_store\": [\n");
    for (i, p) in pairs.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"batch\": {}, \"ns_f64\": {:.0}, \"ns_f32\": {:.0}, \
             \"speedup_vs_f64\": {:.3} }}{}\n",
            p.batch,
            p.ns_f64,
            p.ns_f32,
            p.ns_f64 / p.ns_f32.max(1.0),
            if i + 1 == pairs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let out_path = std::env::var("GCON_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("failed to write BENCH_serve.json");
    println!("  wrote {out_path}");
}
