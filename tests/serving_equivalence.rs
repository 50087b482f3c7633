//! Serving-layer equivalence suite: `gcon-serve` must be a *bitwise* drop-in
//! for the `gcon-core::infer` entry points.
//!
//! Pinned here:
//! - **Store ≡ entry points.** For every node and both modes, served logits
//!   and predictions equal `public_logits`/`private_logits` (and their
//!   `_predict` argmaxes) bit for bit.
//! - **Batched ≡ sequential.** Any batch size, order, or multiplicity —
//!   including micro-batches formed under real concurrency —
//!   reproduces the single-query answers exactly (proptested over random
//!   query mixes).
//! - **Thread-count and tier invariance, per dtype.** The full serving
//!   fingerprint (train → build f64 **and** f32 stores → mixed
//!   direct/batched queries) is byte-identical across
//!   `GCON_THREADS ∈ {1, 2, 4}` and every kernel dispatch tier the host CPU
//!   supports, via the same subprocess-matrix technique as
//!   `runtime_equivalence.rs`. Because the fingerprint interleaves both
//!   store dtypes, one matrix pins the dtype × tier × thread-count cube —
//!   and it extends past generation 0: a fixed `CsrDelta` is applied
//!   through `DynamicServingModel`, and the refreshed generation's store
//!   bits and staleness certificate join the fingerprint — as does a
//!   **post-burst** generation: an edit burst merged FIFO and applied as
//!   one forward-push `∞` refresh — exactly what one `DeltaCoalescer` pass
//!   runs — on a second, `Infinite`-step trained model, pinning the push
//!   solver's iterate, certificate, and cumulative-bound bits across the
//!   same cube.
//! - **f32 store contract.** The quantized store's logits stay within
//!   `F32_STORE_LOGIT_TOL` of the f64 entry points and its hard
//!   predictions agree (the exactness tests pin their store to f64
//!   explicitly, so this suite passes under any `GCON_STORE_DTYPE`).

use gcon::core::infer::{private_logits, private_predict, public_logits, public_predict};
use gcon::core::train::train_gcon;
use gcon::core::{GconConfig, PropagationStep, TrainedGcon};
use gcon::core::{InfRefreshKind, PprSolver};
use gcon::graph::generators::{sbm_homophily, SbmConfig};
use gcon::graph::Graph;
use gcon::graph::{Csr, CsrDelta};
use gcon::linalg::Mat;
use gcon::serve::{
    BatchConfig, BatchQueue, DynamicServingModel, ServingMode, ServingModel, StoreDtype,
    F32_STORE_LOGIT_TOL,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One deterministic trained model per test process (kernels are bitwise
/// reproducible across threads/tiers, so every process trains the same one).
fn trained() -> &'static (TrainedGcon, Graph, Csr) {
    static MODEL: OnceLock<(TrainedGcon, Graph, Csr)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2024);
        let cfg = SbmConfig {
            n: 60,
            num_edges: 180,
            num_classes: 3,
            homophily: 0.85,
            degree_exponent: 2.5,
        };
        let (graph, labels) = sbm_homophily(&cfg, &mut rng);
        let x = Csr::from_dense(&Mat::from_fn(60, 10, |i, j| {
            (if j % 3 == labels[i] { 1.4 } else { 0.0 })
                + 0.35 * (((i * 17 + j * 3) % 19) as f64 / 19.0 - 0.5)
        }));
        let train_idx: Vec<usize> = (0..60).step_by(2).collect();
        let config = GconConfig {
            encoder: gcon::core::encoder::EncoderConfig {
                hidden: 12,
                d1: 6,
                epochs: 50,
                lr: 0.02,
                weight_decay: 1e-5,
            },
            steps: vec![PropagationStep::Finite(0), PropagationStep::Finite(2)],
            optimizer: gcon::core::model::OptimizerConfig { max_iters: 300, grad_tol: 1e-7 },
            ..Default::default()
        };
        let model = train_gcon(&config, &graph, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        (model, graph, x)
    })
}

/// A second trained model with an `Infinite` propagation step and the
/// forward-push refresh solver, on the same graph/features as [`trained`] —
/// the subject of the post-burst fingerprint section (push state only
/// exists on `∞` chains).
fn trained_inf() -> &'static TrainedGcon {
    static MODEL: OnceLock<TrainedGcon> = OnceLock::new();
    MODEL.get_or_init(|| {
        let (_, graph, x) = trained();
        let mut rng = StdRng::seed_from_u64(4096);
        let labels: Vec<usize> = (0..graph.num_nodes()).map(|i| i % 3).collect();
        let train_idx: Vec<usize> = (0..graph.num_nodes()).step_by(3).collect();
        let config = GconConfig {
            encoder: gcon::core::encoder::EncoderConfig {
                hidden: 10,
                d1: 5,
                epochs: 30,
                lr: 0.02,
                weight_decay: 1e-5,
            },
            steps: vec![PropagationStep::Finite(0), PropagationStep::Infinite],
            ppr_solver: PprSolver::Push,
            optimizer: gcon::core::model::OptimizerConfig { max_iters: 150, grad_tol: 1e-7 },
            ..Default::default()
        };
        train_gcon(&config, graph, x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng)
    })
}

#[test]
fn serving_matches_infer_entry_points_bitwise_for_every_node() {
    let (model, graph, x) = trained();
    for (mode, logits, preds) in [
        (ServingMode::Public, public_logits(model, graph, x), public_predict(model, graph, x)),
        (ServingMode::Private, private_logits(model, graph, x), private_predict(model, graph, x)),
    ] {
        // The bitwise claim is the f64 store's contract — pinned explicitly
        // so this test means the same thing under any GCON_STORE_DTYPE.
        let serving = ServingModel::build_with_dtype(model, graph, x, mode, StoreDtype::F64);
        let mut session = serving.session();
        let mut out = Vec::new();
        for (node, &expected) in preds.iter().enumerate() {
            session.logits_into(node, &mut out);
            assert_eq!(out.as_slice(), logits.row(node), "{} logits, node {node}", mode.name());
            assert_eq!(session.predict(node), expected, "{} argmax, node {node}", mode.name());
        }
        assert_eq!(serving.predict_all(), preds, "{} predict_all", mode.name());
    }
}

#[test]
fn micro_batched_concurrent_queries_match_infer_bitwise() {
    let (model, graph, x) = trained();
    let reference = public_logits(model, graph, x);
    let serving =
        ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, StoreDtype::F64);
    let queue = BatchQueue::new(&serving, BatchConfig { max_batch: 16 });
    let n = serving.num_nodes();
    std::thread::scope(|scope| {
        for t in 0..6 {
            let queue = &queue;
            let reference = &reference;
            scope.spawn(move || {
                let mut out = Vec::new();
                for q in 0..30 {
                    let node = (t * 23 + q * 5) % n;
                    queue.query_into(node, &mut out);
                    assert_eq!(
                        out.as_slice(),
                        reference.row(node),
                        "thread {t} query {q} node {node}"
                    );
                }
            });
        }
    });
    let stats = queue.stats();
    assert_eq!(stats.requests, 180);
    assert!(stats.largest_batch <= 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random query mixes: any sequence of nodes, partitioned into batches
    /// of any size, answers bitwise like the full-matrix entry point —
    /// rows are position-independent in every kernel on the path.
    #[test]
    fn random_query_mixes_are_batch_invariant(
        seed in 0u64..1000,
        len in 1usize..70,
        split in 1usize..20,
    ) {
        let (model, graph, x) = trained();
        let reference = public_logits(model, graph, x);
        let serving =
            ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, StoreDtype::F64);
        let n = serving.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let nodes: Vec<usize> = (0..len).map(|_| rng.gen_range(0..n)).collect();
        let mut session = serving.session();
        // Batched in `split`-sized windows…
        for chunk in nodes.chunks(split) {
            let logits = session.logits_batch(chunk);
            for (r, &node) in chunk.iter().enumerate() {
                prop_assert_eq!(logits.row(r), reference.row(node), "node {}", node);
            }
        }
        // …and as one window, and per-query: all identical.
        let all = session.logits_batch(&nodes);
        for (r, &node) in nodes.iter().enumerate() {
            prop_assert_eq!(all.row(r), reference.row(node), "node {}", node);
        }
    }

    /// f64 → f32 store quantization round-trip bound: each element of the
    /// down-converted matrix, widened back, is within one f32 ulp of the
    /// original (relative error ≤ 2⁻²⁴ over the magnitudes a propagated
    /// store contains) — the per-element premise of the
    /// `F32_STORE_LOGIT_TOL` drift argument. Exactly-representable values
    /// survive bit-for-bit.
    #[test]
    fn f32_quantization_roundtrip_is_within_one_ulp(
        seed in 0u64..10_000,
        rows in 1usize..12,
        cols in 1usize..12,
        scale in 1e-6f64..1e6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: Mat = Mat::uniform(rows, cols, scale, &mut rng);
        let q = m.convert::<f32>();
        let back = q.convert::<f64>();
        for (orig, round) in m.as_slice().iter().zip(back.as_slice()) {
            let err = (orig - round).abs();
            prop_assert!(
                err <= orig.abs() * (1.0 / (1u64 << 24) as f64),
                "quantization error {} for value {} exceeds 2^-24 relative", err, orig
            );
        }
        // Exactly f32-representable inputs round-trip bitwise.
        let exact = Mat::from_fn(rows, cols, |i, j| (i as f64) - 0.5 * j as f64);
        prop_assert_eq!(exact.convert::<f32>().convert::<f64>(), exact);
    }
}

/// Serialized bitwise fingerprint of the whole serving path: train, build
/// the f64 **and** f32 stores of both modes, answer a fixed mixed workload
/// directly and through the micro-batcher, then apply a fixed graph delta
/// through `DynamicServingModel` and fingerprint the **post-delta
/// generation** (store bits, staleness certificate, workload) in both
/// dtypes — so the incremental refresh and row-patch paths are pinned by
/// the same matrix as the frozen store. The f32 sections fingerprint the
/// raw quantized store bits plus the widened query logits, so a fingerprint
/// match across the subprocess matrix pins bitwise determinism *within each
/// dtype* — the per-dtype contract; no bit relation across dtypes is
/// claimed anywhere.
fn serving_fingerprint() -> Vec<u8> {
    let (model, graph, x) = trained();
    let mut bytes = Vec::new();
    fn push(bytes: &mut Vec<u8>, values: &[f64]) {
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fn query_workload(bytes: &mut Vec<u8>, serving: &ServingModel) {
        let mut session = serving.session();
        let nodes: Vec<usize> = (0..serving.num_nodes()).map(|i| (i * 13) % 60).collect();
        push(bytes, session.logits_batch(&nodes).as_slice());
        let queue = BatchQueue::new(serving, BatchConfig { max_batch: 8 });
        let mut out = Vec::new();
        for node in [0usize, 7, 59, 7, 31] {
            queue.query_into(node, &mut out);
            push(bytes, &out);
        }
    }
    for mode in [ServingMode::Public, ServingMode::Private] {
        let serving = ServingModel::build_with_dtype(model, graph, x, mode, StoreDtype::F64);
        push(&mut bytes, serving.store_f64().unwrap().as_slice());
        query_workload(&mut bytes, &serving);

        let serving32 = ServingModel::build_with_dtype(model, graph, x, mode, StoreDtype::F32);
        for v in serving32.store_f32().unwrap().as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        query_workload(&mut bytes, &serving32);

        // Post-delta generation: the dynamic store after a fixed mutation
        // batch (two edge toggles + one onboarded node) must be just as
        // deterministic as the frozen one — the incremental refresh and row
        // patch paths join the dtype × tier × thread-count cube here.
        for dtype in [StoreDtype::F64, StoreDtype::F32] {
            let dynamic =
                DynamicServingModel::build_with_dtype(model, graph.clone(), x, mode, dtype);
            let mut delta = CsrDelta::new();
            for &(u, v) in &[(3u32, 41u32), (10u32, 50u32)] {
                if graph.neighbors(u).contains(&v) {
                    delta.remove_edge(u, v);
                } else {
                    delta.insert_edge(u, v);
                }
            }
            let n0 = graph.num_nodes() as u32;
            delta.add_nodes(1).insert_edge(n0, 7);
            let feats = Csr::from_dense(&Mat::from_fn(1, x.cols(), |_, j| 0.3 + 0.1 * j as f64));
            let outcome = dynamic.apply_delta(&delta, Some(&feats));
            bytes.extend_from_slice(&outcome.generation.to_le_bytes());
            push(&mut bytes, &[outcome.staleness_bound]);
            let snap = dynamic.snapshot();
            match dtype {
                StoreDtype::F64 => {
                    push(&mut bytes, snap.model().store_f64().unwrap().as_slice());
                }
                StoreDtype::F32 => {
                    for v in snap.model().store_f32().unwrap().as_slice() {
                        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
            query_workload(&mut bytes, snap.model());
        }
    }

    // Post-burst generation on the ∞-scale push model: four distinct edge
    // toggles merged FIFO into one delta and applied once — exactly what
    // one `DeltaCoalescer` pass over the burst runs — hence one forward-push
    // refresh and one published generation. The merged graph, touched set,
    // push sweep order (sorted worklist), certificate, and cumulative bound
    // are all arrival-order independent, so the post-burst state joins the
    // dtype × tier × thread-count cube bit for bit.
    let (_, graph, x) = trained();
    let model_inf = trained_inf();
    for dtype in [StoreDtype::F64, StoreDtype::F32] {
        let dynamic = DynamicServingModel::build_with_dtype(
            model_inf,
            graph.clone(),
            x,
            ServingMode::Public,
            dtype,
        );
        let mut deltas = [(5u32, 17u32), (12, 44), (23, 31), (40, 52)].map(|(u, v)| {
            let mut delta = CsrDelta::new();
            if graph.neighbors(u).contains(&v) {
                delta.remove_edge(u, v);
            } else {
                delta.insert_edge(u, v);
            }
            delta
        });
        let (first, rest) = deltas.split_first_mut().expect("a four-edit burst");
        for delta in rest.iter() {
            first.merge(delta);
        }
        let outcome = dynamic.apply_delta(first, None);
        assert_eq!(outcome.generation, 1, "one burst, one generation");
        // The solver knob may be overridden process-wide; when it is not
        // (or is forced to push), the burst must have refreshed by push.
        match std::env::var("GCON_REFRESH_SOLVER").as_deref() {
            Err(_) | Ok("") | Ok("push") => {
                assert_eq!(outcome.inf_solver, Some(InfRefreshKind::Push))
            }
            _ => assert!(outcome.inf_solver.is_some()),
        }
        bytes.extend_from_slice(&outcome.generation.to_le_bytes());
        push(&mut bytes, &[outcome.staleness_bound, outcome.cumulative_staleness_bound]);
        bytes.push(outcome.inf_solver.map_or(0, |s| s as u8 + 1));
        let snap = dynamic.snapshot();
        match dtype {
            StoreDtype::F64 => push(&mut bytes, snap.model().store_f64().unwrap().as_slice()),
            StoreDtype::F32 => {
                for v in snap.model().store_f32().unwrap().as_slice() {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
        query_workload(&mut bytes, snap.model());
    }
    bytes
}

/// **Acceptance pin:** the serving fingerprint — which interleaves the f64
/// and f32 store paths — is byte-identical across the
/// `GCON_KERNEL_TIER × GCON_THREADS ∈ {1,2,4}` matrix, i.e. the full
/// dtype × tier × thread-count cube is deterministic within each dtype. Pool width and tier
/// are latched per process, so the test re-executes itself as a subprocess
/// per cell (same technique as `runtime_equivalence.rs`); absent tiers are
/// skipped, not failed.
#[test]
fn serving_byte_identical_across_thread_counts_and_tiers() {
    if let Ok(path) = std::env::var("GCON_SERVE_FINGERPRINT_OUT") {
        std::fs::write(path, serving_fingerprint()).expect("fingerprint write failed");
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let mut outputs = Vec::new();
    for &tier in gcon::runtime::available_tiers() {
        for threads in ["1", "2", "4"] {
            let path = std::env::temp_dir()
                .join(format!("gcon-serve-fp-{}-{tier}-t{threads}", std::process::id()));
            // The child's output is captured, not inherited: its libtest
            // lines would otherwise interleave with the parent's on the
            // shared stdout.
            let child = std::process::Command::new(&exe)
                .args([
                    "serving_byte_identical_across_thread_counts_and_tiers",
                    "--exact",
                    "--test-threads=1",
                ])
                .env("GCON_THREADS", threads)
                .env("GCON_KERNEL_TIER", tier.name())
                .env("GCON_SERVE_FINGERPRINT_OUT", &path)
                .output()
                .expect("failed to respawn test binary");
            assert!(
                child.status.success(),
                "tier={tier} GCON_THREADS={threads} child failed:\n{}{}",
                String::from_utf8_lossy(&child.stdout),
                String::from_utf8_lossy(&child.stderr)
            );
            let data = std::fs::read(&path).expect("fingerprint read failed");
            assert!(!data.is_empty(), "tier={tier} GCON_THREADS={threads} empty fingerprint");
            let _ = std::fs::remove_file(&path);
            outputs.push((tier, threads, data));
        }
    }
    let (t0, w0, reference) = &outputs[0];
    for (tier, threads, data) in &outputs[1..] {
        assert!(
            data == reference,
            "serving results differ between ({t0}, GCON_THREADS={w0}) and \
             ({tier}, GCON_THREADS={threads})"
        );
    }
}

/// The f32 store's accuracy contract on this (larger-than-unit-test) model:
/// every logit stays within `F32_STORE_LOGIT_TOL` of the f64 entry points
/// for both modes, and hard predictions agree node-for-node.
#[test]
fn f32_store_stays_within_drift_contract_of_entry_points() {
    let (model, graph, x) = trained();
    for (mode, logits, preds) in [
        (ServingMode::Public, public_logits(model, graph, x), public_predict(model, graph, x)),
        (ServingMode::Private, private_logits(model, graph, x), private_predict(model, graph, x)),
    ] {
        let serving = ServingModel::build_with_dtype(model, graph, x, mode, StoreDtype::F32);
        assert_eq!(serving.store_dtype(), StoreDtype::F32);
        let mut session = serving.session();
        let mut out = Vec::new();
        let mut max_drift: f64 = 0.0;
        for (node, &expected) in preds.iter().enumerate() {
            session.logits_into(node, &mut out);
            for (a, b) in out.iter().zip(logits.row(node)) {
                max_drift = max_drift.max((a - b).abs());
            }
            assert_eq!(session.predict(node), expected, "{} argmax, node {node}", mode.name());
        }
        assert!(
            max_drift < F32_STORE_LOGIT_TOL,
            "{}: f32 store drift {max_drift:e} exceeds {F32_STORE_LOGIT_TOL:e}",
            mode.name()
        );
        assert_eq!(serving.predict_all(), preds, "{} predict_all", mode.name());
    }
}

/// In-process tier sweep: pinning each available tier, the served answers
/// still equal the entry points computed under that same tier, bitwise.
#[test]
fn serving_matches_infer_at_every_available_tier() {
    let (model, graph, x) = trained();
    gcon::runtime::for_each_available_tier(|tier| {
        let reference = public_logits(model, graph, x);
        let serving =
            ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, StoreDtype::F64);
        let mut session = serving.session();
        let nodes: Vec<usize> = (0..serving.num_nodes()).rev().collect();
        let logits = session.logits_batch(&nodes);
        for (r, &node) in nodes.iter().enumerate() {
            assert_eq!(logits.row(r), reference.row(node), "tier {tier}, node {node}");
        }
    });
}
