//! Serving: freeze a trained model into a precomputed feature store and
//! answer node queries at dense-head cost — including micro-batched
//! concurrent queries — bitwise identical to the one-shot inference path.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use gcon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // 1. Train a model exactly as in the quickstart.
    let dataset = gcon::datasets::two_moons_graph(42);
    let mut rng = StdRng::seed_from_u64(0);
    let model = train_gcon(
        &GconConfig::default(),
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        2.0,
        dataset.default_delta(),
        &mut rng,
    );

    // 2. One-shot inference recomputes full-graph propagation per call —
    //    answering one node costs the same as answering all of them.
    let t = Instant::now();
    let reference = public_predict(&model, &dataset.graph, &dataset.features);
    println!("one-shot public_predict (all nodes): {:?}", t.elapsed());

    // 3. Build the serving model: the propagation is paid once, here.
    let t = Instant::now();
    let serving =
        ServingModel::build(&model, &dataset.graph, &dataset.features, ServingMode::Public);
    println!("ServingModel::build (one-time):      {:?}", t.elapsed());

    // 4. Queries now index the store and run only the head — and agree with
    //    the one-shot path bit for bit, single or batched, in any order.
    let mut session = serving.session();
    let t = Instant::now();
    let batch = session.predict_batch(&[3, 141, 59, 3]).to_vec();
    println!("served batch {batch:?} in {:?}", t.elapsed());
    assert_eq!(batch, [reference[3], reference[141], reference[59], reference[3]]);
    assert_eq!(serving.predict_all(), reference);

    // 5. Under concurrency, a BatchQueue runs the single-node requests
    //    that queue up while a forward runs as the next forward (≤ 32 here);
    //    there is no timer, so a lone request runs at once.
    let queue = BatchQueue::new(&serving, BatchConfig { max_batch: 32 });
    let n = serving.num_nodes();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let queue = &queue;
            let reference = &reference;
            scope.spawn(move || {
                let mut logits = Vec::new();
                for q in 0..50 {
                    let node = (t * 61 + q * 13) % n;
                    queue.query_into(node, &mut logits);
                    assert_eq!(gcon::linalg::vecops::argmax(&logits), reference[node]);
                }
            });
        }
    });
    let stats = queue.stats();
    println!(
        "micro-batcher: {} requests in {} batches (mean batch {:.1}, largest {})",
        stats.requests,
        stats.batches,
        stats.requests as f64 / stats.batches as f64,
        stats.largest_batch,
    );

    // 6. The graph is not frozen forever: a DynamicServingModel applies
    //    edge deltas at O(affected rows) cost and publishes each result as
    //    a new immutable generation — readers never wait on a refresh.
    let dynamic = gcon::serve::DynamicServingModel::build(
        &model,
        dataset.graph.clone(),
        &dataset.features,
        ServingMode::Public,
    );
    let before = dynamic.snapshot(); // generation 0, kept alive across deltas

    let (u, v) = (3u32, n as u32 / 2);
    let mut delta = gcon::graph::CsrDelta::new();
    let had_edge = dataset.graph.neighbors(u).contains(&v);
    if had_edge {
        delta.remove_edge(u, v);
    } else {
        delta.insert_edge(u, v);
    }
    let t = Instant::now();
    let outcome = dynamic.apply_delta(&delta, None);
    println!(
        "apply_delta → generation {} in {:?} ({} of {} rows recomputed, staleness ≤ {:e})",
        outcome.generation,
        t.elapsed(),
        outcome.rows_recomputed,
        n,
        outcome.staleness_bound,
    );

    // The pre-delta snapshot still answers from its frozen store…
    assert_eq!(before.model().predict_all(), reference);
    // …while the new generation equals a from-scratch rebuild on the
    // mutated graph (bitwise for an f64 store; this example only checks
    // predictions so it also runs under GCON_STORE_DTYPE=f32).
    let mutated = if had_edge {
        dataset.graph.with_edge_removed(u, v)
    } else {
        dataset.graph.with_edge_added(u, v)
    };
    let rebuilt = ServingModel::build(&model, &mutated, &dataset.features, ServingMode::Public);
    assert_eq!(dynamic.snapshot().model().predict_all(), rebuilt.predict_all());

    // Round-trip: undo the toggle and the store returns to the original
    // answers.
    let mut undo = gcon::graph::CsrDelta::new();
    if had_edge {
        undo.insert_edge(u, v);
    } else {
        undo.remove_edge(u, v);
    }
    dynamic.apply_delta(&undo, None);
    assert_eq!(dynamic.snapshot().model().predict_all(), reference);
    println!("delta round-trip restored the original predictions (generation 2)");

    // 7. Under an *edit* burst, a DeltaCoalescer plays the BatchQueue role
    //    for mutations: edits that queue up while a refresh runs merge into
    //    one CsrDelta and pay one refresh + one published generation.
    let gen_before_burst = dynamic.snapshot().generation();
    let coalescer =
        gcon::serve::DeltaCoalescer::new(&dynamic, gcon::serve::CoalesceConfig::default());
    let burst: Vec<(u32, u32, bool)> = (0..4u32)
        .map(|i| {
            let (a, b) = (5 + i, (n as u32 / 2 + 7 * i) % n as u32);
            (a, b, dataset.graph.neighbors(a).contains(&b))
        })
        .collect();
    std::thread::scope(|scope| {
        for &(a, b, present) in &burst {
            let coalescer = &coalescer;
            scope.spawn(move || {
                let mut delta = gcon::graph::CsrDelta::new();
                if present {
                    delta.remove_edge(a, b);
                } else {
                    delta.insert_edge(a, b);
                }
                let outcome = coalescer.submit(delta, None);
                assert!(outcome.generation > gen_before_burst);
            });
        }
    });
    let cstats = coalescer.stats();
    println!(
        "coalesced burst: {} edits in {} refresh(es) → generation {}",
        cstats.edits,
        cstats.windows,
        dynamic.snapshot().generation(),
    );

    // Undo the whole burst the same way and the store returns to the
    // post-round-trip (= original) answers, however the edits batched.
    std::thread::scope(|scope| {
        for &(a, b, present) in &burst {
            let coalescer = &coalescer;
            scope.spawn(move || {
                let mut undo = gcon::graph::CsrDelta::new();
                if present {
                    undo.insert_edge(a, b);
                } else {
                    undo.remove_edge(a, b);
                }
                coalescer.submit(undo, None);
            });
        }
    });
    assert_eq!(dynamic.snapshot().model().predict_all(), reference);
    println!("burst round-trip restored the original predictions");

    // A node the store has never seen can still be answered immediately:
    // a batched one-hop gather over its own edges, no store mutation.
    let unseen = gcon::serve::OnboardQuery {
        features: dataset.features.to_dense().row(7).to_vec(),
        neighbors: dataset.graph.neighbors(7).to_vec(),
    };
    let logits = dynamic.onboard_logits(&[unseen]);
    println!(
        "onboard query answered without a refresh: argmax {}",
        gcon::linalg::vecops::argmax(logits.row(0)),
    );
}
