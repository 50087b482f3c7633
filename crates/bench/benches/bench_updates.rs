//! Dynamic-graph update bench: incremental store refresh
//! (`gcon_serve::DynamicServingModel::apply_delta`) against the full
//! rebuild (`ServingModel::build`) a static store would pay per mutation.
//!
//! Six measurements per run:
//!
//! - **full rebuild** — one `ServingModel::build` on the current graph: the
//!   cost a static deployment pays for *every* edge that changes.
//! - **incremental single-edge** — one `apply_delta` toggling a single
//!   edge: O(affected rows) chain refresh + store row patch + generation
//!   publish. The acceptance target is ≥ 10× cheaper than the rebuild;
//!   the printed report and `BENCH_updates.json` record the ratio.
//! - **incremental onboard** — one `apply_delta` that adds a node with one
//!   edge (store grows a row, new node becomes queryable).
//! - **`∞`-scale solver comparison** — the same single-edge toggle on a
//!   model with an `Infinite` propagation step, refreshed by forward-push
//!   residual maintenance (`PprSolver::Push`, O(vol(affected)) per edit)
//!   vs warm global power sweeps (`PprSolver::Power`, global even for a
//!   local edit). Both publish the same certified staleness class.
//! - **delta-burst coalescing sweep** — k ∈ {1, 8, 64} distinct-edge
//!   toggles applied as k individual refreshes vs merged
//!   (`CsrDelta::merge`, exactly the `DeltaCoalescer` leader path) into
//!   **one** refresh, plus the end-to-end wall time of a real concurrent
//!   burst through `DeltaCoalescer` (includes thread spawn — an upper
//!   bound on scheduler overhead; the burst refreshes in as many passes as
//!   the edits' arrival spreads it over, since the combiner has no
//!   batching window).
//! - **sustained updates/sec while serving** — a writer thread applying
//!   deltas back-to-back while reader threads hammer snapshots; reports
//!   realized updates/sec and the queries/sec served *concurrently* (the
//!   staleness-aware generation swap never blocks readers on the refresh).
//!
//! The main bench model uses finite propagation scales, so every refreshed
//! generation is **bitwise identical** to a from-scratch rebuild — asserted
//! inline after the timed section, making the speedup an exactness-free
//! comparison. Results go to `BENCH_updates.json` at the workspace root
//! (override with `GCON_BENCH_OUT`), stamped with the host they were
//! measured on; `GCON_BENCH_QUICK=1` shrinks the dataset and rep counts
//! for CI smoke runs.

use gcon_bench::median_time_ns as time_ns;
use gcon_core::train::train_gcon;
use gcon_core::{GconConfig, InfRefreshKind, PprSolver, PropagationStep};
use gcon_graph::{Csr, CsrDelta, Graph};
use gcon_linalg::Mat;
use gcon_serve::{
    CoalesceConfig, DeltaCoalescer, DynamicServingModel, ServingMode, ServingModel, StoreDtype,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// `k` pairwise-distinct normalized edge keys plus each edge's presence in
/// the *initial* graph. Distinct keys never net against each other under
/// `CsrDelta::merge`, so every burst below performs `k` real edge flips.
fn distinct_toggle_keys(graph: &Graph, k: usize) -> Vec<(u32, u32, bool)> {
    let n = graph.num_nodes() as u32;
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    let mut i = 0u32;
    while keys.len() < k {
        let (mut u, mut v) = ((i * 37 + 11) % n, (i * 53 + 29) % n);
        i += 1;
        if u == v {
            continue;
        }
        if u > v {
            std::mem::swap(&mut u, &mut v);
        }
        if !seen.insert((u, v)) {
            continue;
        }
        keys.push((u, v, graph.has_edge(u, v)));
    }
    keys
}

/// One toggle delta per key: `parity` counts how many times the whole
/// burst has been applied, so repeated reps alternate insert/remove and
/// every application performs real work.
fn burst_deltas(keys: &[(u32, u32, bool)], parity: usize) -> Vec<CsrDelta> {
    keys.iter()
        .map(|&(u, v, present0)| {
            let present = present0 ^ (parity % 2 == 1);
            let mut d = CsrDelta::new();
            if present {
                d.remove_edge(u, v);
            } else {
                d.insert_edge(u, v);
            }
            d
        })
        .collect()
}

fn main() {
    let quick =
        std::env::var("GCON_BENCH_QUICK").map(|v| !v.is_empty() && v != "0").unwrap_or(false);
    let scale = if quick { 0.12 } else { 0.3 };
    let dataset = gcon_datasets::cora_ml(scale, 7);
    let n = dataset.graph.num_nodes();
    println!(
        "bench_updates: {} at scale {scale} ({n} nodes, {} edges), GCON_THREADS={}",
        dataset.name,
        dataset.graph.num_edges(),
        gcon_runtime::configured_width()
    );

    let mut rng = StdRng::seed_from_u64(7);
    // Same head shape as bench_serve: d1 = 32 over two finite scales — the
    // refreshed generations are bitwise-exact, so the speedup below trades
    // away nothing.
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

    let reps = if quick { 3 } else { 5 };
    let mut sink = 0usize;

    // Baseline: what a static store pays per mutation — a full rebuild.
    let rebuild_ns = time_ns(reps, || {
        let s = ServingModel::build_with_dtype(
            &model,
            &dataset.graph,
            &dataset.features,
            ServingMode::Public,
            StoreDtype::F64,
        );
        sink ^= s.num_nodes();
    });

    let dynamic = DynamicServingModel::build_with_dtype(
        &model,
        dataset.graph.clone(),
        &dataset.features,
        ServingMode::Public,
        StoreDtype::F64,
    );

    // A non-edge to toggle: insert on even calls, remove on odd, so every
    // timed apply_delta performs real work and the graph stays bounded.
    let u = (n / 3) as u32;
    let v = (0..n as u32)
        .find(|&w| w != u && !dataset.graph.neighbors(u).contains(&w))
        .expect("graph is not complete");
    let mut inserted = false;
    let mut last_affected = 0usize;
    let incr_ns = time_ns(reps * 10, || {
        let mut delta = CsrDelta::new();
        if inserted {
            delta.remove_edge(u, v);
        } else {
            delta.insert_edge(u, v);
        }
        inserted = !inserted;
        let outcome = dynamic.apply_delta(&delta, None);
        last_affected = outcome.affected_rows;
        sink ^= outcome.generation as usize;
    });
    // Leave the graph back in its original edge set for the equality check.
    if inserted {
        let mut delta = CsrDelta::new();
        delta.remove_edge(u, v);
        dynamic.apply_delta(&delta, None);
    }
    let rebuilt = ServingModel::build_with_dtype(
        &model,
        &dataset.graph,
        &dataset.features,
        ServingMode::Public,
        StoreDtype::F64,
    );
    assert_eq!(
        dynamic.snapshot().model().store_f64().unwrap().as_slice(),
        rebuilt.store_f64().unwrap().as_slice(),
        "incremental refreshes diverged from a from-scratch rebuild — exactness broken"
    );

    // Onboarding: add one node with one edge per timed call (store grows).
    let d0 = dataset.features.cols();
    let mut next = n;
    let onboard_ns = time_ns(reps * 5, || {
        let mut delta = CsrDelta::new();
        delta.add_nodes(1);
        delta.insert_edge(next as u32, (next % n) as u32);
        let feats = Mat::from_fn(1, d0, |_, c| ((next * 13 + c * 5) % 17) as f64 / 17.0 - 0.4);
        let feats = Csr::from_dense(&feats);
        let outcome = dynamic.apply_delta(&delta, Some(&feats));
        sink ^= outcome.onboarded.start as usize;
        next += 1;
    });

    // ∞-scale solver comparison: same trained weights, steps swapped to
    // [Finite(1), Infinite] (the head width stays 2·d1, so Θ is
    // shape-exact; refresh cost does not depend on the head values). Each
    // model pins its solver through `config.ppr_solver` — the
    // GCON_REFRESH_SOLVER env override is process-wide, the config is not.
    // `Power` continues global sweeps from the previous limit even when the
    // edit touches a handful of rows; `Push` repairs the residual on the
    // touched rows and sweeps only where it exceeds the certified
    // threshold.
    let mut inf_model = model.clone();
    inf_model.config.steps = vec![PropagationStep::Finite(1), PropagationStep::Infinite];
    let mut inf_results: Vec<(&str, f64, f64)> = Vec::new();
    for (name, solver, expect) in [
        ("push", PprSolver::Push, InfRefreshKind::Push),
        ("warm-power", PprSolver::Power, InfRefreshKind::Power),
    ] {
        let mut m = inf_model.clone();
        m.config.ppr_solver = solver;
        let dyn_inf = DynamicServingModel::build_with_dtype(
            &m,
            dataset.graph.clone(),
            &dataset.features,
            ServingMode::Public,
            StoreDtype::F64,
        );
        let mut ins = false;
        let mut last_bound = 0.0;
        let ns = time_ns(reps * 2, || {
            let mut delta = CsrDelta::new();
            if ins {
                delta.remove_edge(u, v);
            } else {
                delta.insert_edge(u, v);
            }
            ins = !ins;
            let outcome = dyn_inf.apply_delta(&delta, None);
            assert_eq!(
                outcome.inf_solver,
                Some(expect),
                "∞ refresh ran a different solver than the configured {name}"
            );
            last_bound = outcome.staleness_bound;
            sink ^= outcome.inf_iterations;
        });
        inf_results.push((name, ns, last_bound));
    }
    let (inf_push_ns, inf_push_bound) = (inf_results[0].1, inf_results[0].2);
    let inf_power_ns = inf_results[1].1;
    let inf_push_speedup = inf_power_ns / inf_push_ns;
    // Both solvers certify the same staleness class — the push bound must
    // sit at the converged-solve level, not merely "finite".
    assert!(
        inf_push_bound < 1e-8,
        "push certificate {inf_push_bound:e} is far above the converged-solve level"
    );

    // Delta-burst coalescing sweep: k individual refreshes vs the
    // DeltaCoalescer leader path (merge FIFO + one apply_delta), plus the
    // end-to-end wall time of a real concurrent burst through the
    // coalescer. Finite model ⇒ both paths are bitwise equal to a rebuild
    // on the final graph; the round-trip equality is asserted after each
    // timed sweep.
    let burst_ks: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64] };
    let mut burst_rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &k in burst_ks {
        let keys = distinct_toggle_keys(&dataset.graph, k);
        let build_model = || {
            DynamicServingModel::build_with_dtype(
                &model,
                dataset.graph.clone(),
                &dataset.features,
                ServingMode::Public,
                StoreDtype::F64,
            )
        };
        let individual = build_model();
        let merged_model = build_model();
        let wall_model = build_model();

        let mut par_i = 0usize;
        let individual_ns = time_ns(reps, || {
            for d in burst_deltas(&keys, par_i) {
                sink ^= individual.apply_delta(&d, None).affected_rows;
            }
            par_i += 1;
        });

        let mut par_m = 0usize;
        let coalesced_ns = time_ns(reps, || {
            let mut ds = burst_deltas(&keys, par_m).into_iter();
            par_m += 1;
            let mut merged = ds.next().expect("k ≥ 1");
            for d in ds {
                merged.merge(&d);
            }
            sink ^= merged_model.apply_delta(&merged, None).affected_rows;
        });

        let mut par_w = 0usize;
        let coalescer_wall_ns = time_ns(reps, || {
            let coalescer = DeltaCoalescer::new(&wall_model, CoalesceConfig { max_pending: k });
            let mut ds = burst_deltas(&keys, par_w).into_iter();
            par_w += 1;
            let first = ds.next().expect("k ≥ 1");
            std::thread::scope(|scope| {
                for d in ds {
                    let coalescer = &coalescer;
                    scope.spawn(move || {
                        coalescer.submit(d, None);
                    });
                }
                sink ^= coalescer.submit(first, None).affected_rows;
            });
        });

        // Return every model to the origin graph, then pin the coalescing
        // equivalence: all three histories flipped the same edges an even
        // number of times, so all three stores must be bitwise identical.
        if par_i % 2 == 1 {
            for d in burst_deltas(&keys, par_i) {
                individual.apply_delta(&d, None);
            }
        }
        for (m, par) in [(&merged_model, par_m), (&wall_model, par_w)] {
            if par % 2 == 1 {
                let mut ds = burst_deltas(&keys, par).into_iter();
                let mut merged = ds.next().expect("k ≥ 1");
                for d in ds {
                    merged.merge(&d);
                }
                m.apply_delta(&merged, None);
            }
            assert_eq!(
                individual.snapshot().model().store_f64().unwrap().as_slice(),
                m.snapshot().model().store_f64().unwrap().as_slice(),
                "coalesced burst history diverged from individual refreshes (k = {k})"
            );
        }
        burst_rows.push((k, individual_ns, coalesced_ns, coalescer_wall_ns));
    }

    // Sustained: one writer toggling edges flat-out, 3 readers querying
    // snapshots the whole time. Readers never block on the refresh lock.
    let updates_target = if quick { 40 } else { 200 };
    let stop = AtomicBool::new(false);
    let queries = AtomicUsize::new(0);
    let t = Instant::now();
    let mut sustained_ns = 0.0;
    std::thread::scope(|scope| {
        for tid in 0..3usize {
            let (stop, queries, dynamic) = (&stop, &queries, &dynamic);
            scope.spawn(move || {
                let mut q = tid;
                while !stop.load(Ordering::Relaxed) {
                    let snap = dynamic.snapshot();
                    std::hint::black_box(snap.model().logits(q % n));
                    queries.fetch_add(1, Ordering::Relaxed);
                    q += 7;
                }
            });
        }
        let mut ins = false;
        for _ in 0..updates_target {
            let mut delta = CsrDelta::new();
            if ins {
                delta.remove_edge(u, v);
            } else {
                delta.insert_edge(u, v);
            }
            ins = !ins;
            dynamic.apply_delta(&delta, None);
        }
        sustained_ns = t.elapsed().as_nanos() as f64;
        stop.store(true, Ordering::Relaxed);
    });
    let concurrent_queries = queries.load(Ordering::Relaxed);
    let updates_per_sec = updates_target as f64 / (sustained_ns / 1e9);
    let queries_per_sec = concurrent_queries as f64 / (sustained_ns / 1e9);

    let speedup = rebuild_ns / incr_ns;
    println!("  {:<40} {:>14} {:>14}", "path", "ns/update", "updates/sec");
    for (label, ns) in [
        ("full rebuild (static baseline)", rebuild_ns),
        ("incremental single-edge", incr_ns),
        ("incremental onboard (+1 node)", onboard_ns),
    ] {
        println!("  {:<40} {:>14.0} {:>14.0}", label, ns, 1e9 / ns);
    }
    println!(
        "  single-edge refresh speedup vs rebuild: {speedup:.1}x  \
         (affected rows last toggle: {last_affected}/{n})"
    );
    println!("  ∞-scale single-edge refresh (steps [Finite(1), Infinite]):");
    for (name, ns, bound) in &inf_results {
        println!("    {:<38} {:>14.0}   staleness ≤ {:.2e}", name, ns, bound);
    }
    println!("    push speedup vs warm-power: {inf_push_speedup:.1}x");
    println!("  burst coalescing (k toggles, finite model):");
    println!(
        "    {:<6} {:>16} {:>16} {:>10} {:>18}",
        "k", "individual ns", "coalesced ns", "fraction", "coalescer wall ns"
    );
    for &(k, ind, coal, wall) in &burst_rows {
        println!(
            "    {:<6} {:>16.0} {:>16.0} {:>9.1}% {:>18.0}",
            k,
            ind,
            coal,
            100.0 * coal / ind,
            wall
        );
    }
    println!(
        "  sustained: {updates_per_sec:.0} updates/sec with {queries_per_sec:.0} \
         queries/sec served concurrently ({concurrent_queries} queries over \
         {updates_target} updates)"
    );
    std::hint::black_box(sink);

    let mut json = String::from("{\n  \"bench\": \"updates\",\n");
    json.push_str(&format!("  \"host\": {},\n", gcon_bench::host_stamp_json()));
    json.push_str(&format!("  \"nodes\": {n},\n  \"quick\": {quick},\n"));
    json.push_str("  \"unit\": \"ns_per_update_median\",\n");
    json.push_str(&format!(
        "  \"full_rebuild_ns\": {rebuild_ns:.0},\n  \"incremental_edge_ns\": {incr_ns:.0},\n"
    ));
    json.push_str(&format!(
        "  \"incremental_onboard_ns\": {onboard_ns:.0},\n  \
         \"speedup_vs_rebuild\": {speedup:.1},\n"
    ));
    json.push_str(&format!(
        "  \"inf_edge\": {{ \"push_ns\": {inf_push_ns:.0}, \"warm_power_ns\": {inf_power_ns:.0}, \
         \"push_speedup_vs_power\": {inf_push_speedup:.1}, \
         \"push_staleness_bound\": {inf_push_bound:e} }},\n"
    ));
    json.push_str("  \"burst_sweep\": [\n");
    for (i, &(k, ind, coal, wall)) in burst_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"k\": {k}, \"individual_ns\": {ind:.0}, \"coalesced_ns\": {coal:.0}, \
             \"coalesced_fraction\": {:.3}, \"coalescer_wall_ns\": {wall:.0} }}{}\n",
            coal / ind,
            if i + 1 < burst_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sustained\": {{ \"updates_per_sec\": {updates_per_sec:.0}, \
         \"concurrent_queries_per_sec\": {queries_per_sec:.0}, \
         \"updates\": {updates_target}, \"queries\": {concurrent_queries} }}\n}}\n"
    ));
    let out_path = std::env::var("GCON_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_updates.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("failed to write BENCH_updates.json");
    println!("  wrote {out_path}");
}
